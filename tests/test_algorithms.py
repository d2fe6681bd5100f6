"""Estimators, trackers, runs, baselines, and schedules."""

import math
from dataclasses import replace

import numpy as np
import pytest

from reference import (
    ClientState,
    Shard,
    client_shard,
    emitted_ids,
    one_client_fedx1,
    one_client_fedx2,
    small_dataset,
)

from fedcpr.algorithms import (
    PROGRAMS,
    CentralizedProgram,
    HyperParams,
    RunSettings,
    UTable,
    fedx_estimate,
    momentum_update,
    simulate,
    theory_schedule,
)
from fedcpr.data import DataConfig, FederatedDataset, build_dataset
from fedcpr.federation import server_aggregate
from fedcpr.losses import (
    IDENTITY_OUTER,
    OuterFnSpec,
    PairwiseLossSpec,
    exact_grad,
    loss,
    loss_and_slope,
)
from fedcpr.model import ScorerSpec, finite_diff_grad, init_params, score_grad_many, score_many
from fedcpr.rng import substream

PSM = PairwiseLossSpec("psm_sigmoid")
KL = PairwiseLossSpec("kl_opauc", lam=2.0)
SQ = PairwiseLossSpec("square")
KL_LOG = OuterFnSpec("kl_log", lam=2.0)
LIN2 = ScorerSpec("linear", 2)


def _state(scorer, loss_spec, outer, w, shard, hyper=None, with_u=False):
    settings = RunSettings("test", scorer, loss_spec, outer, hyper or HyperParams())
    st = ClientState(index=0, shard=shard, settings=settings,
                     model=np.asarray(w, dtype=float))
    if with_u:
        st.u_table = UTable(shard.n_pos)
    return st


def _shard2():
    return Shard(
        pos_ids=np.array([0, 1]),
        pos_X=np.array([[2.0, 1.0], [1.0, 0.0]]),
        neg_ids=np.array([2, 3]),
        neg_X=np.array([[0.5, 3.0], [0.0, 1.0]]),
    )


def _values(values):
    return np.asarray(values, dtype=float)


class TestFedX1Estimate:
    def test_sigmoid_weights_at_equal_scores(self):
        # All fresh and lazy scores equal: the pairwise-sigmoid partials are
        # -1/4 and +1/4, multiplying the respective score gradients.
        shard = _shard2()
        w = np.array([1.0, -1.0])
        a = float(w @ shard.pos_X[0])
        b = float(w @ shard.neg_X[0])
        st = _state(LIN2, PSM, IDENTITY_OUTER, w, shard)
        g = one_client_fedx1(st, np.array([0]), np.array([0]),
                             _values([a]), _values([b]))
        np.testing.assert_allclose(
            g, -0.25 * shard.pos_X[0] + 0.25 * shard.neg_X[0], rtol=1e-15
        )

    def test_square_loss_hand_unrolled(self):
        # w=[1,-1], fresh scores 1.0 and -2.5, lazy 0.2 and 0.7:
        # -0.4*[2,1] + (-4.4)*[0.5,3] = [-3.0, -13.6]
        st = _state(LIN2, SQ, IDENTITY_OUTER, [1.0, -1.0], _shard2())
        g = one_client_fedx1(st, np.array([0]), np.array([0]),
                             _values([0.2]), _values([0.7]))
        np.testing.assert_allclose(g, [-3.0, -13.6], rtol=1e-15)

    def test_appends_fresh_scores_with_provenance(self):
        # A frozen-model round on one client: the upload table carries each
        # step's fresh scores with (client, iteration, sample id) provenance.
        shard = _shard2()
        arrays = (shard.pos_ids, shard.pos_X, shard.neg_ids, shard.neg_X)
        ds = FederatedDataset(*(a[None] for a in arrays), shard.pos_X, shard.neg_X)
        hyper = HyperParams(eta=0.0, K=4, R=1, B1=1, B2=1, seed=3)
        program = PROGRAMS["fedx1"](RunSettings("fedx1", LIN2, SQ, IDENTITY_OUTER, hyper), ds)
        program.begin_round(server_aggregate(program.bootstrap_uploads()), 1)
        for k in range(hyper.K):
            program.step(k, hyper.eta)
        up = program.uploads()
        ids1, ids2 = emitted_ids(program)
        assert up.h1.shape == up.h2.shape == ids1.shape == ids2.shape == (1, hyper.K, 1)
        w = program.model[0]
        for k in range(hyper.K):
            g = substream(3, "step", 0, 1, k)
            z1, z2 = g.choice(2, size=1, replace=False), g.choice(2, size=1, replace=False)
            assert (list(ids1[0, k]), list(ids2[0, k])) == (list(shard.pos_ids[z1]),
                                                            list(shard.neg_ids[z2]))
            assert list(up.h1[0, k]) == [w @ shard.pos_X[z1[0]]]
            assert list(up.h2[0, k]) == [w @ shard.neg_X[z2[0]]]

    def test_batch_size_mismatch_rejected(self):
        # Two sampled positives but one slope: that of the first against
        # the lazy negative score 0.2.
        shard = _shard2()
        for scorer in (LIN2, ScorerSpec("mlp1", 2, hidden_dim=3)):
            w = np.linspace(1.0, -1.0, scorer.param_count)[None]
            a, pull1 = score_grad_many(scorer, w, shard.pos_X[None])
            b, pull2 = score_grad_many(scorer, w, shard.neg_X[None, :1])
            d1 = -loss_and_slope(SQ, a[:, :1], _values([[0.2]]))[1]
            d2 = loss_and_slope(SQ, _values([[0.7]]), b)[1]
            with pytest.raises(ValueError, match=r"^pullback weights have shape \(1, 1\)"):
                fedx_estimate(IDENTITY_OUTER, pull1, pull2, d1, d2)


def _track(table, position, fresh, lazy_neg, gamma):
    """One tracked-mean update from a fresh score and a lazy negative."""
    pos = np.array([position])
    table.track(pos, loss(KL, _values([fresh]), _values([lazy_neg])), gamma)
    return table.values[position]


class TestFedX2UUpdate:
    def test_full_replacement_at_gamma_one(self):
        table = UTable(1)
        table.values[0] = 0.7
        new = _track(table, 0, 0.0, 0.0, 1.0)
        np.testing.assert_allclose(new, loss(KL, 0.0, 0.0), rtol=1e-15)

    def test_gamma_zero_leaves_value(self):
        table = UTable(1)
        table.values[0] = 0.7
        new = _track(table, 0, 3.0, 1.0, 0.0)
        assert new == 0.7

    def test_half_step_from_zero_matches_independent_recurrence(self):
        # u_old = 0, gamma = 0.5, pairwise value exp(0.5): u_new = exp(0.5)/2.
        table = UTable(1)
        new = _track(table, 0, 0.0, 0.0, 0.5)
        np.testing.assert_allclose(new, math.exp(0.5) / 2.0, rtol=1e-15)
        assert table.touched[0]

    def test_other_entries_untouched(self):
        table = UTable(3)
        _track(table, 1, 0.0, 0.0, 0.5)
        assert table.values[0] == 0.0 and table.values[2] == 0.0
        assert list(table.touched) == [False, True, False]

    def test_unknown_id_rejected(self):
        with pytest.raises(IndexError):
            _track(UTable(1), 1, 0.0, 0.0, 0.5)

    def test_batch_update_equals_scalar_loop(self):
        # Batches are drawn without replacement, so one vector update equals
        # the scalar recurrence applied position by position, bit for bit.
        rng = np.random.default_rng(3)
        start = rng.uniform(1, 2, 6)
        pos, a, b = np.array([4, 0, 3]), rng.normal(size=3), rng.normal(size=3)
        table = UTable(6)
        table.values[:] = start
        table.track(pos, loss(KL, a, b), 0.3)
        expected = [float(v) for v in start]
        for m, i in enumerate(pos):
            expected[i] = (1.0 - 0.3) * expected[i] + 0.3 * loss(KL, float(a[m]), float(b[m]))
        assert table.values.tobytes() == np.array(expected).tobytes()
        assert list(np.flatnonzero(table.touched)) == [0, 3, 4]


class TestFedX2Estimate:
    def test_identity_outer_reduces_to_linear_estimator(self):
        shard = _shard2()
        st = _state(LIN2, KL, IDENTITY_OUTER, [0.3, 0.8], shard, with_u=True)
        st.u_table.values[:] = 1.4
        z1, z2 = np.array([0, 1]), np.array([1, 0])
        lazy_neg = _values([0.2, -0.6])
        lazy_pos = _values([0.9, 0.1])
        lazy_u = _values([2.0, 3.0])
        g2 = one_client_fedx2(st, z1, z2, lazy_neg, lazy_pos, lazy_u)
        g1 = one_client_fedx1(st, z1, z2, lazy_neg, lazy_pos)
        np.testing.assert_array_equal(g1, g2)

    def test_clamped_outer_derivative_stays_finite(self):
        shard = _shard2()
        st = _state(LIN2, KL, KL_LOG, [0.3, 0.8], shard, with_u=True)
        # u left at its initial 0: the clamp bounds f' at lambda / U_FLOOR.
        g = one_client_fedx2(st, np.array([0]), np.array([0]),
                             _values([0.0]), _values([0.0]), _values([0.0]))
        assert np.all(np.isfinite(g))

    def test_pairing_length_mismatch_rejected(self):
        st = _state(LIN2, KL, KL_LOG, [0.3, 0.8], _shard2(), with_u=True)
        with pytest.raises(ValueError):
            one_client_fedx2(st, np.array([0]), np.array([0]),
                             _values([0.0]), _values([0.0]), _values([0.0, 1.0]))


class TestMomentum:
    def test_closed_form_constant_input(self):
        rng = np.random.default_rng(0)
        g0 = rng.standard_normal(8)
        g = rng.standard_normal(8)
        beta = 0.17
        mom = g0.copy()
        for k in range(1, 25):
            mom = momentum_update(mom, g, beta)
            expected = (1 - beta) ** k * g0 + (1 - (1 - beta) ** k) * g
            np.testing.assert_allclose(mom, expected, atol=1e-12)

    def test_beta_one_is_raw_estimate(self):
        g = np.array([1.0, -2.0])
        np.testing.assert_array_equal(momentum_update(np.array([9.0, 9.0]), g, 1.0), g)


def _dataset(n_clients=2, n_pos=5, n_neg=9, dim=3, seed=3, **kw):
    cfg = DataConfig(
        n_pos_per_client=n_pos, n_neg_per_client=n_neg, input_dim=dim,
        n_clients=n_clients, hetero_var=0, hetero_base=0, hetero_step=0,
        seed=seed, **kw,
    )
    return build_dataset(cfg)


class TestFedX1Run:
    def test_requires_identity_outer(self):
        # The outer function is checked, never silently replaced.
        ds = _dataset()
        with pytest.raises(ValueError, match="outer.kind"):
            simulate("fedx1", ds, ScorerSpec("linear", 3), KL, KL_LOG, HyperParams())

    def test_unknown_algorithm_rejected(self):
        ds = _dataset()
        with pytest.raises(ValueError, match="algorithm"):
            simulate("fedx3", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, HyperParams())

    @pytest.mark.parametrize("held_out, counts", [
        ((2, 3), "2 positives and 3 negatives"),
        ((0, 10), "0 positives and 10 negatives"),
        ((1, 2), "1 positives and 2 negatives"),
    ])
    def test_small_held_out_split_rejected_before_any_round(self, held_out, counts):
        # pAUC@0.3 keeps floor(0.3 * Q) negatives, none of 3.
        ds = small_dataset(1, 3, 5, held_out, 1)
        seen = []

        class Sink:
            on_round = seen.append

        with pytest.raises(ValueError, match=rf"^held-out split: {counts}, needs at least 1 and 4 "):
            simulate("fedx1", ds, ScorerSpec("linear", 4), PSM, IDENTITY_OUTER,
                     HyperParams(K=1, R=1, B1=1, B2=1), trace_sink=Sink())
        assert seen == []

    def test_smallest_held_out_split_runs(self):
        ds = small_dataset(1, 3, 5, (1, 4), 1)
        trace = simulate("fedx1", ds, ScorerSpec("linear", 4), PSM, IDENTITY_OUTER,
                         HyperParams(K=1, R=1, B1=1, B2=1))
        assert [sorted(r.pauc) for r in trace.rounds] == [[0.3, 0.5]] * 2

    def test_zero_eta_returns_initial_model(self):
        ds = _dataset(n_clients=1)
        hyper = HyperParams(eta=0.0, K=1, R=1, B1=1, B2=1, seed=5)
        trace = simulate("fedx1", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)
        w0 = init_params(ScorerSpec("linear", 3), substream(5, "init"))
        np.testing.assert_array_equal(trace.final_model, w0)

    def test_deterministic_replay(self):
        ds = _dataset()
        hyper = HyperParams(eta=0.05, K=3, R=4, B1=2, B2=3, seed=6)
        t1 = simulate("fedx1", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)
        t2 = simulate("fedx1", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)
        np.testing.assert_array_equal(t1.final_model, t2.final_model)
        assert [r.objective for r in t1.rounds] == [r.objective for r in t2.rounds]
        assert [r.auc for r in t1.rounds] == [r.auc for r in t2.rounds]

    def test_objective_improves_on_easy_instance(self):
        ds = _dataset(n_pos=8, n_neg=16)
        hyper = HyperParams(eta=0.05, K=8, R=12, B1=4, B2=4, seed=7)
        trace = simulate("fedx1", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)
        assert trace.rounds[-1].objective < trace.rounds[0].objective

    def test_round_records_structure(self):
        ds = _dataset()
        hyper = HyperParams(eta=0.01, K=2, R=3, B1=2, B2=2, seed=8)
        trace = simulate("fedx1", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)
        assert [r.round for r in trace.rounds] == [0, 1, 2, 3]
        d, K, B = 3, 2, 2
        for rec in trace.rounds:
            assert rec.uplink_floats == d + 2 * K * B
            assert rec.buffer_wraps == 0

    @pytest.mark.parametrize("scale,name", [(1e200, "objective"), (1e77, "grad_norm_sq")])
    def test_non_finite_oracle_value_is_named(self, scale, name):
        # Finite features at which the square loss's exact objective (x1e200),
        # or only its squared gradient norm (x1e77), overflows at round 0.
        ds = _dataset()
        ds = replace(ds, pos_X=ds.pos_X * scale, neg_X=ds.neg_X * scale)
        hyper = HyperParams(eta=0.01, K=1, R=1, B1=2, B2=2, seed=8)
        with pytest.raises(FloatingPointError,
                           match=rf"^exact {name} is non-finite \(inf\) at round 0$"):
            with np.errstate(over="ignore", invalid="ignore"):
                simulate("fedx1", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)

    def test_eval_cadence(self):
        ds = _dataset()
        hyper = HyperParams(eta=0.01, K=2, R=4, B1=2, B2=2, seed=8)
        trace = simulate("fedx1", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper,
                         eval_every=2, oracle_every=3)
        assert [r.auc is not None for r in trace.rounds] == [
            True, False, True, False, True
        ]
        assert [r.objective is not None for r in trace.rounds] == [
            True, False, False, True, True
        ]


class TestFedX2Run:
    def test_requires_nonlinear_outer(self):
        ds = _dataset()
        with pytest.raises(ValueError):
            simulate("fedx2", ds, ScorerSpec("linear", 3), KL, IDENTITY_OUTER, HyperParams())

    def test_deterministic_replay(self):
        ds = _dataset()
        hyper = HyperParams(eta=0.01, K=3, R=3, B1=2, B2=2, gamma=0.3, beta=0.4, seed=9)
        kw = dict(scorer=ScorerSpec("linear", 3), loss_spec=KL, outer=KL_LOG, hyper=hyper)
        t1 = simulate("fedx2", ds, **kw)
        t2 = simulate("fedx2", ds, **kw)
        np.testing.assert_array_equal(t1.final_model, t2.final_model)

    def test_beta_one_matches_manual_raw_updates(self):
        # With beta = 1 the momentum is the raw estimate; replaying the same
        # substreams by hand must land on the same model.
        ds = _dataset(n_clients=1, n_pos=4, n_neg=6)
        hyper = HyperParams(eta=0.02, K=2, R=1, B1=2, B2=2, gamma=0.5, beta=1.0, seed=10)
        scorer = ScorerSpec("linear", 3)
        trace = simulate("fedx2", ds, scorer, KL, KL_LOG, hyper)

        settings = RunSettings("fedx2", scorer, KL, KL_LOG, hyper)
        program = PROGRAMS["fedx2"](settings, ds)
        download = server_aggregate(program.bootstrap_uploads())
        program.begin_round(download, 1)
        for k in range(hyper.K):
            program.step(k, hyper.eta)
        np.testing.assert_array_equal(trace.final_model, program.model[0])

    def test_u_table_locality_and_emission_counts(self):
        ds = _dataset(n_clients=2, n_pos=6, n_neg=8)
        hyper = HyperParams(eta=0.01, K=2, R=1, B1=3, B2=2, gamma=0.5, seed=11)
        settings = RunSettings("fedx2", ScorerSpec("linear", 3), KL, KL_LOG, hyper)
        program = PROGRAMS["fedx2"](settings, ds)
        download = server_aggregate(program.bootstrap_uploads())
        program.begin_round(download, 1)
        table = program.u_table
        before = table.values.copy()
        program.step(0, hyper.eta)
        changed = np.flatnonzero(before[0] != table.values[0])
        assert len(changed) == hyper.B1
        up = program.uploads()
        assert up.h1.shape == up.h1_u.shape == (2, hyper.K, hyper.B1)
        # Client 0's iteration-0 emission: B1 distinct samples of its own.
        ids = emitted_ids(program)[0][0, 0]
        assert len(set(ids)) == hyper.B1 and set(ids) <= set(program.pos_ids[0])

    def test_emitted_u_values_never_zero(self):
        # Never-updated entries emit the full-replacement fallback, of which
        # the pairwise loss is >= 1 under the compositional surrogate.
        ds = _dataset(n_clients=2, n_pos=8, n_neg=8)
        hyper = HyperParams(eta=0.01, K=2, R=3, B1=2, B2=2, gamma=0.4, seed=12)
        settings = RunSettings("fedx2", ScorerSpec("linear", 3), KL, KL_LOG, hyper)
        program = PROGRAMS["fedx2"](settings, ds)
        download = server_aggregate(program.bootstrap_uploads())
        for r in range(1, hyper.R + 1):
            program.begin_round(download, r)
            for k in range(hyper.K):
                program.step(k, hyper.eta)
            table = program.uploads()
            download = server_aggregate(table)
            assert table.h1_u.min() > 0

    def test_paired_lazy_draws_share_provenance(self):
        ds = _dataset(n_clients=2, n_pos=4, n_neg=4)
        hyper = HyperParams(eta=0.01, K=2, R=1, B1=2, B2=2, gamma=0.5, seed=13)
        settings = RunSettings("fedx2", ScorerSpec("linear", 3), KL, KL_LOG, hyper)
        program = PROGRAMS["fedx2"](settings, ds)
        download = server_aggregate(program.bootstrap_uploads())

        # Every aggregated positive-side position holds a score and the
        # u-value of one sample...
        assert download.r1_u.shape == download.r1.shape == emitted_ids(program)[0].reshape(-1).shape
        # ...and one drawn position reads both, preserving the pairing.
        program.begin_round(download, 1)
        drawn = program.pos_at[:, 0].reshape(-1)
        assert program.lazy_pos[:, 0].reshape(-1).tobytes() == download.r1[drawn].tobytes()
        assert program.lazy_u[:, 0].reshape(-1).tobytes() == download.r1_u[drawn].tobytes()

    def test_single_pair_first_round_matches_centralized_direction(self):
        # On a 1-positive/1-negative instance every draw is the same sample,
        # so round-1 lazy records equal the fresh initial-model scores and
        # the first federated step must coincide with the centralized
        # moving-average-tracker step (gamma=1 aligns the tracked means).
        cfg = DataConfig(n_pos_per_client=1, n_neg_per_client=1, input_dim=3,
                         n_clients=1, hetero_var=0, hetero_base=0, hetero_step=0,
                         seed=24)
        ds = build_dataset(cfg)
        hyper = HyperParams(eta=0.1, K=1, R=1, B1=1, B2=1, gamma=1.0, beta=0.3,
                            seed=24)
        scorer = ScorerSpec("linear", 3)
        t_fed = simulate("fedx2", ds, scorer, KL, KL_LOG, hyper)
        t_cen = simulate("centralized", ds, scorer, KL, KL_LOG, hyper)
        w0 = init_params(scorer, substream(24, "init"))
        assert not np.array_equal(t_fed.final_model, w0)  # a real step happened
        np.testing.assert_allclose(t_fed.final_model, t_cen.final_model, rtol=1e-15)

    def test_finite_sample_u_bias_recorded_not_asserted(self, capsys):
        # With real (finite-sample) tracked means instead of exact inner
        # values, the estimator mean is biased in general; measure and report
        # the deviation from the exact gradient without gating on it.
        ds = _dataset(n_clients=2, n_pos=4, n_neg=6, seed=25)
        scorer = ScorerSpec("linear", 3)
        w0 = init_params(scorer, substream(25, "init"))
        hyper = HyperParams(eta=0.0, K=1, R=1, B1=1, B2=1, gamma=1.0, beta=1.0,
                            seed=25)
        settings = RunSettings("fedx2", scorer, KL, KL_LOG, hyper)
        program = PROGRAMS["fedx2"](settings, ds)
        bootstrap = server_aggregate(program.bootstrap_uploads())

        # Every round starts from the frozen-model bootstrap aggregate; one
        # step per client, gamma = 1 and beta = 1, so each client's momentum
        # after the step is its raw estimate.
        draws = []
        for r in range(1, 2001):
            program.begin_round(bootstrap, r)
            program.step(0, 0.0)
            gsum = np.zeros(3)
            for estimate in program.momentum:
                gsum += estimate
            draws.append(gsum / 2)
        mean = np.mean(draws, axis=0)
        truth = exact_grad(KL, KL_LOG, scorer, w0, ds.pos_union()[1],
                           ds.neg_union()[1])
        dev = np.abs(mean - truth)
        se = np.std(draws, axis=0, ddof=1) / np.sqrt(len(draws))
        print(f"\nfinite-sample tracker bias: max |mean-exact| = {dev.max():.4f}, "
              f"in SE units: {(dev / se).max():.1f}")
        assert np.all(np.isfinite(mean))

    def test_reuse_history_mode_runs_and_differs(self):
        ds = _dataset()
        kw = dict(scorer=ScorerSpec("linear", 3), loss_spec=KL, outer=KL_LOG)
        h_ind = HyperParams(eta=0.02, K=2, R=2, B1=2, B2=2, seed=14)
        h_reuse = HyperParams(eta=0.02, K=2, R=2, B1=2, B2=2, seed=14,
                              history_samples="reuse")
        t_ind = simulate("fedx2", ds, hyper=h_ind, **kw)
        t_reuse = simulate("fedx2", ds, hyper=h_reuse, **kw)
        assert not np.array_equal(t_ind.final_model, t_reuse.final_model)


class TestBaselines:
    def test_local_sgd_gradient_matches_finite_differences(self):
        ds = _dataset(n_clients=2)
        hyper = HyperParams(eta=1e-3, K=1, R=1, B1=3, B2=3, seed=15)
        scorer = ScorerSpec("mlp1", 3, hidden_dim=2)
        settings = RunSettings("local_sgd", scorer, PSM, IDENTITY_OUTER, hyper)
        from fedcpr.algorithms import LocalSGDProgram

        program = LocalSGDProgram(settings, ds)
        program.begin_round(server_aggregate(program.bootstrap_uploads()), 1)
        w0 = program.model[0]
        program.step(0, hyper.eta)
        grad = (w0 - program.model[0]) / hyper.eta

        # Reconstruct the drawn batch from the same substream.
        g = substream(hyper.seed, "step", 0, 1, 0)
        shard = client_shard(ds, 0)
        X = np.vstack([shard.pos_X, shard.neg_X])
        y = np.concatenate([np.ones(shard.n_pos), -np.ones(shard.n_neg)])
        idx = g.choice(X.shape[0], size=6, replace=False)

        def batch_loss(w):
            s = score_many(scorer, w, X[idx])
            return float(np.mean(np.logaddexp(0.0, -y[idx] * s)))

        fd = finite_diff_grad(batch_loss, w0, 1e-6)
        assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd)) <= 1e-5

    def test_local_pair_single_client_matches_centralized_frozen(self):
        ds = _dataset(n_clients=1, n_pos=6, n_neg=9)
        hyper = HyperParams(eta=0.0, K=2, R=2, B1=2, B2=2, seed=16)
        scorer = ScorerSpec("linear", 3)
        t_lp = simulate("local_pair", ds, scorer, SQ, IDENTITY_OUTER, hyper)
        t_ce = simulate("centralized", ds, scorer, SQ, IDENTITY_OUTER, hyper)
        w0 = init_params(scorer, substream(16, "init"))
        np.testing.assert_array_equal(t_lp.final_model, w0)
        np.testing.assert_array_equal(t_ce.final_model, w0)

    def test_local_pair_single_client_b1_equals_centralized_trajectory(self):
        # With singleton batches the per-sample pairing and the all-pairs
        # average coincide, so the two runs share every substream and model.
        ds = _dataset(n_clients=1, n_pos=6, n_neg=9)
        hyper = HyperParams(eta=0.05, K=3, R=3, B1=1, B2=1, seed=17)
        scorer = ScorerSpec("linear", 3)
        t_lp = simulate("local_pair", ds, scorer, SQ, IDENTITY_OUTER, hyper)
        t_ce = simulate("centralized", ds, scorer, SQ, IDENTITY_OUTER, hyper)
        np.testing.assert_allclose(t_lp.final_model, t_ce.final_model, rtol=1e-12)

    def test_centralized_full_batch_gamma_one_is_exact_gradient_descent(self):
        ds = _dataset(n_clients=2, n_pos=4, n_neg=6)
        pos_X = ds.pos_union()[1]
        neg_X = ds.neg_union()[1]
        hyper = HyperParams(eta=0.05, K=1, R=1, B1=8, B2=12, gamma=1.0, beta=1.0,
                            seed=18)
        scorer = ScorerSpec("linear", 3)
        settings = RunSettings("centralized", scorer, KL, KL_LOG, hyper)
        program = CentralizedProgram(settings, ds)
        program.begin_round(server_aggregate(program.bootstrap_uploads()), 1)
        w0 = program.model[0]
        program.step(0, hyper.eta)
        step_dir = (w0 - program.model[0]) / hyper.eta
        expected = exact_grad(KL, KL_LOG, scorer, w0, pos_X, neg_X)
        np.testing.assert_allclose(step_dir, expected, rtol=1e-12)

    def test_centralized_full_batch_descent_is_monotone_on_convex_instance(self):
        ds = _dataset(n_clients=1, n_pos=6, n_neg=10)
        hyper = HyperParams(eta=0.02, K=2, R=8, B1=6, B2=10, gamma=1.0, beta=1.0,
                            seed=19)
        trace = simulate("centralized", ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)
        objs = [r.objective for r in trace.rounds]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_local_sgd_improves_auc(self):
        ds = _dataset(n_clients=2, n_pos=20, n_neg=40)
        hyper = HyperParams(eta=0.1, K=10, R=10, B1=8, B2=8, seed=20)
        trace = simulate("local_sgd", ds, ScorerSpec("linear", 3), PSM, IDENTITY_OUTER, hyper)
        assert trace.rounds[-1].auc > 0.8

    @pytest.mark.parametrize("algorithm", ["local_sgd", "local_pair", "centralized"])
    def test_baseline_replay_determinism(self, algorithm):
        ds = _dataset()
        hyper = HyperParams(eta=0.03, K=2, R=2, B1=2, B2=2, seed=21)
        t1 = simulate(algorithm, ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)
        t2 = simulate(algorithm, ds, ScorerSpec("linear", 3), SQ, IDENTITY_OUTER, hyper)
        np.testing.assert_array_equal(t1.final_model, t2.final_model)

    def test_nonlinear_local_pair_runs(self):
        ds = _dataset()
        hyper = HyperParams(eta=0.01, K=2, R=2, B1=2, B2=2, gamma=0.5, beta=0.5,
                            seed=22)
        trace = simulate("local_pair", ds, ScorerSpec("linear", 3), KL, KL_LOG, hyper)
        assert np.all(np.isfinite(trace.final_model))

    @pytest.mark.parametrize("algorithm,loss_spec,outer", [
        ("fedx1", SQ, IDENTITY_OUTER),
        ("local_sgd", PSM, IDENTITY_OUTER),
        ("local_pair", KL, KL_LOG),
        ("centralized", KL, KL_LOG),
    ])
    def test_history_samples_changes_only_fedx2(self, algorithm, loss_spec, outer):
        # Only fedx2 draws separate emission batches; every other algorithm,
        # the u-tracking baselines included, runs the same under both values.
        ds = _dataset()
        models = [
            simulate(algorithm, ds, ScorerSpec("linear", 3), loss_spec, outer,
                     HyperParams(eta=0.05, K=3, R=3, B1=2, B2=3, gamma=0.5, beta=0.5, seed=21,
                                 history_samples=mode)).final_model.tobytes()
            for mode in ("independent", "reuse")
        ]
        assert models[0] == models[1]

    def test_divergence_raises_instead_of_nan(self):
        # Unbounded scores with the exp loss blow up at this step size; the
        # engine must surface it as an error, never a NaN trace.
        ds = _dataset(n_clients=2, n_pos=16, n_neg=80, seed=23)
        hyper = HyperParams(eta=0.05, K=8, R=60, B1=2, B2=2, gamma=0.2, beta=0.2,
                            seed=23)
        with pytest.raises(FloatingPointError, match="diverged"):
            simulate("fedx2", ds, ScorerSpec("linear", 3), KL, KL_LOG, hyper,
                     eval_every=0, oracle_every=0)


class TestTheorySchedule:
    def test_linear_kind_example(self):
        hp = theory_schedule("fedx1", 0.1, n_clients=4)
        assert hp.K == 3
        np.testing.assert_allclose(hp.eta, 0.04)
        assert hp.R == 1000

    def test_nonlinear_kind_example(self):
        hp = theory_schedule("fedx2", 0.1, n_clients=4, max_shard=100)
        assert hp.K == 100
        np.testing.assert_allclose(hp.gamma, 0.01)
        np.testing.assert_allclose(hp.beta, 0.001)
        np.testing.assert_allclose(hp.eta, 1e-4)

    def test_k_always_at_least_one(self):
        for eps in (0.05, 0.3, 0.9, 0.99):
            for n in (1, 16, 1000):
                assert theory_schedule("fedx1", eps, n_clients=n).K >= 1
        assert theory_schedule("fedx2", 0.99, 1, max_shard=1).K >= 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            theory_schedule("fedx1", 0.0, 1)
        with pytest.raises(ValueError):
            theory_schedule("fedx1", 1.0, 1)
        with pytest.raises(ValueError):
            theory_schedule("sgd", 0.1, 1)

    @pytest.mark.parametrize("kind, kwargs, name", [
        ("fedx1", dict(n_clients=0), "n_clients"),
        ("fedx2", dict(n_clients=4, max_shard=0), "max_shard"),
        ("fedx2", dict(n_clients=4, max_shard=-1), "max_shard"),
    ])
    def test_nonpositive_counts_name_the_argument(self, kind, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            theory_schedule(kind, 0.1, **kwargs)


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(K=0)
        with pytest.raises(ValueError):
            HyperParams(eta=-0.1)
        with pytest.raises(ValueError):
            HyperParams(gamma=0.0)
        with pytest.raises(ValueError):
            HyperParams(beta=1.5)
        with pytest.raises(ValueError):
            HyperParams(history_samples="other")

    def test_eta_decay_schedule(self):
        hp = HyperParams(eta=1.0, lr_decay_every=10, lr_decay_factor=0.1)
        assert hp.eta_at(0) == 1.0
        assert hp.eta_at(9) == 1.0
        np.testing.assert_allclose(hp.eta_at(10), 0.1)
        np.testing.assert_allclose(hp.eta_at(25), 0.01)

    def test_no_decay_by_default(self):
        hp = HyperParams(eta=0.5)
        assert hp.eta_at(10_000) == 0.5

"""Pairwise losses, outer functions, and the exact oracles."""

import math

import numpy as np
import pytest
from reference import exact_inner, score, score_grad

from fedcpr import losses
from fedcpr.data import DataConfig, build_dataset
from fedcpr.losses import (
    IDENTITY_OUTER,
    OuterFnSpec,
    PairwiseLossSpec,
    exact_grad,
    exact_objective,
    exact_oracle,
    loss,
    loss_and_slope,
    outer_deriv,
    outer_value,
)
from fedcpr.model import ScorerSpec, finite_diff_grad, score_many

PSM = PairwiseLossSpec("psm_sigmoid")
KL = PairwiseLossSpec("kl_opauc", lam=2.0)
SQ = PairwiseLossSpec("square")
KL_LOG = OuterFnSpec("kl_log", lam=2.0)

ALL_LOSSES = [PSM, KL, SQ]
ALL_OUTERS = [IDENTITY_OUTER, KL_LOG]


class TestLossValues:
    def test_psm_at_equal_scores(self):
        assert loss(PSM, 1.3, 1.3) == 0.5

    def test_kl_opauc_hinge_boundary(self):
        # a = b + 1: the hinge is inactive, exp(0) = 1.
        assert loss(KL, 2.0, 1.0) == 1.0
        assert loss(KL, 5.0, 1.0) == 1.0

    def test_square_zero_at_unit_margin(self):
        assert loss(SQ, 2.0, 1.0) == 0.0

    def test_kl_opauc_value_against_independent_calculator(self):
        # lambda=2, a=0, b=0: exp(1/2), evaluated via the math library.
        np.testing.assert_allclose(loss(KL, 0.0, 0.0), math.exp(0.5), rtol=1e-15)

    def test_psm_saturates_instead_of_overflowing(self):
        assert loss(PSM, 1000.0, 0.0) == 0.0
        assert loss(PSM, -1000.0, 0.0) == 1.0

    def test_psm_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-50, 50, 1000)
        b = rng.uniform(-50, 50, 1000)
        np.testing.assert_allclose(loss(PSM, a, b) + loss(PSM, b, a), 1.0, atol=1e-12)

    def test_kl_opauc_at_least_one(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-5, 5, 1000)
        b = rng.uniform(-5, 5, 1000)
        assert np.all(loss(KL, a, b) >= 1.0)

    def test_kl_opauc_nondecreasing_in_b(self):
        b = np.linspace(-4, 4, 200)
        for a in (-1.0, 0.0, 2.5):
            vals = loss(KL, a, b)
            assert np.all(np.diff(vals) >= 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PairwiseLossSpec("hinge")
        with pytest.raises(ValueError):
            PairwiseLossSpec("kl_opauc", lam=0.0)


class TestLossGrads:
    def test_psm_at_equal_scores(self):
        _, db = loss_and_slope(PSM, 0.7, 0.7)
        da = -db
        np.testing.assert_allclose([da, db], [-0.25, 0.25], rtol=1e-15)

    def test_kl_opauc_inactive_hinge(self):
        for a in (3.0, 2.0):  # 2.0 is exactly at the kink
            _, db = loss_and_slope(KL, a, 1.0)
            assert (-db, db) == (0.0, 0.0)

    @pytest.mark.parametrize("spec", ALL_LOSSES, ids=lambda s: s.kind)
    def test_matches_scalar_finite_differences(self, spec):
        rng = np.random.default_rng(2)
        step = 1e-6
        for _ in range(60):
            a, b = rng.uniform(-2, 2, 2)
            _, db = loss_and_slope(spec, a, b)
            da = -db
            fd_a = (loss(spec, a + step, b) - loss(spec, a - step, b)) / (2 * step)
            fd_b = (loss(spec, a, b + step) - loss(spec, a, b - step)) / (2 * step)
            assert abs(da - fd_a) <= 1e-5 * max(1.0, abs(da))
            assert abs(db - fd_b) <= 1e-5 * max(1.0, abs(db))


class TestOuterFns:
    def test_identity(self):
        assert outer_value(IDENTITY_OUTER, 3.25) == 3.25
        assert outer_deriv(IDENTITY_OUTER, -17.0) == 1.0

    def test_kl_log(self):
        np.testing.assert_allclose(outer_value(KL_LOG, 4.0), 2.0 * math.log(4.0))
        np.testing.assert_allclose(outer_deriv(KL_LOG, 4.0), 0.5)

    def test_floor_clamp(self):
        # Tracked estimates start at 0, so f and f' clamp near zero.
        assert outer_value(KL_LOG, 0.0) == 2.0 * math.log(1e-8)
        assert outer_deriv(KL_LOG, 0.0) == 2.0 / 1e-8
        assert np.isfinite(outer_deriv(KL_LOG, 0.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OuterFnSpec("log")
        with pytest.raises(ValueError):
            OuterFnSpec("kl_log", lam=-1.0)


LIN3 = ScorerSpec("linear", 3)


def _instance(rng, n_pos, n_neg, dim=3):
    return rng.standard_normal((n_pos, dim)), rng.standard_normal((n_neg, dim))


SEPARATING_W = np.array([1.0, 0.1, -0.1])


def _separated_instance(rng):
    """30 x 50 pairs on which SEPARATING_W ranks every positive above every
    negative by more than the unit margin."""
    pos, neg = _instance(rng, 30, 50)
    pos[:, 0] += 20.0
    assert score_many(LIN3, SEPARATING_W, pos).min() > score_many(LIN3, SEPARATING_W, neg).max() + 1.0
    return pos, neg


class TestExactOracles:
    def test_inner_single_negative(self):
        rng = np.random.default_rng(3)
        pos, neg = _instance(rng, 1, 1)
        w = rng.standard_normal(3)
        a = score(LIN3, w, pos[0])
        b = score(LIN3, w, neg[0])
        np.testing.assert_allclose(
            exact_inner(SQ, LIN3, w, pos[0], neg), loss(SQ, a, b), rtol=1e-15
        )

    def test_inner_square_all_scores_equal(self):
        pos = np.array([[1.0, 1.0, 1.0]])
        neg = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        w = np.array([0.2, 0.3, -0.1])
        assert exact_inner(SQ, LIN3, w, pos[0], neg) == 1.0

    def test_inner_three_negatives_by_hand(self):
        w = np.array([1.0, 0.0, 0.0])
        x = np.array([2.0, 0.0, 0.0])  # score 2
        neg = np.array([[1.0, 0, 0], [0.0, 0, 0], [3.0, 0, 0]])  # scores 1, 0, 3
        expected = (loss(SQ, 2.0, 1.0) + loss(SQ, 2.0, 0.0) + loss(SQ, 2.0, 3.0)) / 3
        np.testing.assert_allclose(exact_inner(SQ, LIN3, w, x, neg), expected, rtol=1e-15)

    def test_inner_rejects_empty(self):
        with pytest.raises(ValueError):
            exact_inner(SQ, LIN3, np.zeros(3), np.zeros(3), np.zeros((0, 3)))

    def test_objective_single_pair_identity(self):
        rng = np.random.default_rng(4)
        pos, neg = _instance(rng, 1, 1)
        w = rng.standard_normal(3)
        expected = loss(PSM, score(LIN3, w, pos[0]), score(LIN3, w, neg[0]))
        np.testing.assert_allclose(
            exact_objective(PSM, IDENTITY_OUTER, LIN3, w, pos, neg), expected
        )

    def test_objective_kl_zero_at_unit_margins(self):
        # Every pair at a = b + 1 gives inner 1, and lambda*log(1) = 0.
        kl1 = PairwiseLossSpec("kl_opauc", lam=1.0)
        out1 = OuterFnSpec("kl_log", lam=1.0)
        w = np.array([1.0, 0.0, 0.0])
        pos = np.array([[2.0, 0, 0], [2.0, 5, 5]])
        neg = np.array([[1.0, 0, 0], [1.0, -3, 2]])
        assert exact_objective(kl1, out1, LIN3, w, pos, neg) == 0.0

    def test_objective_2x3_hand_unrolled(self):
        rng = np.random.default_rng(5)
        pos, neg = _instance(rng, 2, 3)
        w = rng.standard_normal(3)
        total = 0.0
        for p in pos:
            inner = 0.0
            for q in neg:
                inner += loss(KL, score(LIN3, w, p), score(LIN3, w, q))
            total += outer_value(KL_LOG, inner / 3.0)
        np.testing.assert_allclose(
            exact_objective(KL, KL_LOG, LIN3, w, pos, neg), total / 2.0, rtol=1e-12
        )

    def test_grad_zero_at_square_stationary_point(self):
        # Every pair at unit margin: each pairwise square loss is minimized.
        w = np.array([1.0, 0.0, 0.0])
        pos = np.array([[2.0, 1, 4], [2.0, -2, 0]])
        neg = np.array([[1.0, 3, 3], [1.0, 0, 1]])
        np.testing.assert_array_equal(
            exact_grad(SQ, IDENTITY_OUTER, LIN3, w, pos, neg), np.zeros(3)
        )

    def test_grad_identity_outer_is_mean_of_pair_grads(self):
        rng = np.random.default_rng(6)
        pos, neg = _instance(rng, 3, 4)
        w = rng.standard_normal(3)
        acc = np.zeros(3)
        for p in pos:
            for q in neg:
                _, db = loss_and_slope(SQ, score(LIN3, w, p), score(LIN3, w, q))
                da = -db
                acc += da * p + db * q  # linear scorer: grad h = x
        np.testing.assert_allclose(
            exact_grad(SQ, IDENTITY_OUTER, LIN3, w, pos, neg), acc / 12.0, rtol=1e-12
        )

    @pytest.mark.parametrize("outer", ALL_OUTERS, ids=lambda o: o.kind)
    @pytest.mark.parametrize("loss_spec", ALL_LOSSES, ids=lambda s: s.kind)
    def test_grad_matches_finite_differences(self, loss_spec, outer):
        rng = np.random.default_rng(7)
        mlp = ScorerSpec("mlp1", 3, hidden_dim=2)
        for scorer in (LIN3, mlp):
            for _ in range(4):
                pos, neg = _instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                w = 0.6 * rng.standard_normal(scorer.param_count)
                g = exact_grad(loss_spec, outer, scorer, w, pos, neg)
                fd = finite_diff_grad(
                    lambda v: exact_objective(loss_spec, outer, scorer, v, pos, neg),
                    w,
                    1e-5,
                )
                assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) <= 1e-5

    def test_objective_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            exact_objective(SQ, IDENTITY_OUTER, LIN3, np.zeros(3),
                            np.zeros((0, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            exact_objective(SQ, IDENTITY_OUTER, LIN3, np.zeros(3),
                            np.ones((2, 3)), np.zeros((0, 3)))

    def test_kl_grads_zero_beyond_margin(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            b = rng.uniform(-3, 3)
            a = b + 1.0 + rng.uniform(0, 2)
            _, db = loss_and_slope(KL, a, b)
            assert (-db, db) == (0.0, 0.0)


def _direct_oracle(loss_spec, outer, scorer, w, pos, neg):
    """Objective and gradient straight from the definition, on the full
    P x Q matrices: finite only where every exp(m^2/lambda) is."""
    a, b = score_many(scorer, w, pos), score_many(scorer, w, neg)
    lmat, db = loss_and_slope(loss_spec, a[:, None], b[None, :])
    da = -db
    g = lmat.mean(axis=1)
    fp = outer_deriv(outer, g)[:, None]
    grad = (fp * da).sum(axis=1) @ np.array([score_grad(scorer, w, x) for x in pos])
    grad += (fp * db).sum(axis=0) @ np.array([score_grad(scorer, w, x) for x in neg])
    return float(np.mean(outer_value(outer, g))), grad / lmat.size


def _assert_matches_direct(loss_spec, outer, scorer, w, pos, neg, rtol=1e-12):
    obj, grad = exact_oracle(loss_spec, outer, scorer, w, pos, neg)
    want_obj, want_grad = _direct_oracle(loss_spec, outer, scorer, w, pos, neg)
    assert np.isfinite(want_obj) and np.all(np.isfinite(want_grad))
    assert abs(obj - want_obj) <= rtol * abs(want_obj)
    assert np.linalg.norm(grad - want_grad) <= rtol * np.linalg.norm(want_grad)
    assert exact_objective(loss_spec, outer, scorer, w, pos, neg) == obj
    np.testing.assert_array_equal(exact_grad(loss_spec, outer, scorer, w, pos, neg), grad)


class TestExactOracleSweep:
    @pytest.mark.parametrize("outer", ALL_OUTERS, ids=lambda o: o.kind)
    @pytest.mark.parametrize("loss_spec", ALL_LOSSES, ids=lambda s: s.kind)
    def test_matches_direct_formula(self, loss_spec, outer):
        rng = np.random.default_rng(9)
        for scorer in (LIN3, ScorerSpec("mlp1", 3, hidden_dim=2)):
            # One block, then several blocks of 10 rows (Q = 3000).
            for n_pos, n_neg in ((7, 5), (45, 3000)):
                pos, neg = _instance(rng, n_pos, n_neg)
                w = 0.6 * rng.standard_normal(scorer.param_count)
                _assert_matches_direct(loss_spec, outer, scorer, w, pos, neg)

    @pytest.mark.parametrize("n_pos,n_neg", [(70, 1000), (3, 2**15 + 1)])
    def test_block_edges(self, n_pos, n_neg):
        # 32-row blocks with a last block of 6 rows; then Q > 2^15, so every
        # block holds one row.
        rng = np.random.default_rng(10)
        pos, neg = _instance(rng, n_pos, n_neg)
        w = 0.6 * rng.standard_normal(3)
        for loss_spec, outer in ((KL, KL_LOG), (PSM, KL_LOG), (SQ, IDENTITY_OUTER)):
            _assert_matches_direct(loss_spec, outer, LIN3, w, pos, neg)

    def test_u_floor_clamp_branch(self):
        # psm_sigmoid at a far point: the positives scored far above every
        # negative have an inner mean below U_FLOOR, the others above it.
        rng = np.random.default_rng(11)
        pos, neg = _instance(rng, 40, 30)
        pos[:, 0] += 2.0
        w = np.array([20.0, 0.0, 0.0])
        inner = np.array([exact_inner(PSM, LIN3, w, x, neg) for x in pos])
        assert (inner < losses.U_FLOOR).any() and (inner > losses.U_FLOOR).any()
        want = np.mean([KL_LOG.lam * math.log(max(g, losses.U_FLOOR)) for g in inner])
        obj, _ = exact_oracle(PSM, KL_LOG, LIN3, w, pos, neg)
        assert abs(obj - want) <= 1e-12 * abs(want)
        _assert_matches_direct(PSM, KL_LOG, LIN3, w, pos, neg)

    def test_finite_at_stress_point(self):
        # w = -10 (mu+ - mu-)/||mu+ - mu-|| on 1024 x 5120 pairs: every positive
        # scores far below every negative, and exp(m^2/lambda) overflows.
        ds = build_dataset(DataConfig(n_pos_per_client=64, n_neg_per_client=320,
                                      input_dim=8, n_clients=16, seed=0))
        pos, neg = ds.pos_union()[1], ds.neg_union()[1]
        diff = pos.mean(axis=0) - neg.mean(axis=0)
        w = -10.0 * diff / np.linalg.norm(diff)
        scorer = ScorerSpec("linear", 8)
        obj, grad = exact_oracle(KL, KL_LOG, scorer, w, pos, neg)
        assert np.isfinite(obj) and np.all(np.isfinite(grad))

        # Reference, one positive at a time: logsumexp for f, softmax weights
        # for f'(g_p) * dl/db.
        a, b = pos @ w, neg @ w
        want_obj, want_grad, t_top = 0.0, np.zeros(8), 0.0
        for a_p, x_p in zip(a, pos):
            m = np.maximum(b + 1.0 - a_p, 0.0)
            t = m * m / KL.lam
            t_top = max(t_top, t.max())
            e = np.exp(t - t.max())
            want_obj += KL_LOG.lam * (t.max() + math.log(e.sum() / b.size))
            weights = KL_LOG.lam * (e / e.sum()) * (2.0 * m / KL.lam)
            want_grad += weights @ neg - weights.sum() * x_p
        want_obj /= a.size
        want_grad /= a.size
        assert t_top > math.log(np.finfo(float).max)  # exp(t) overflows
        assert abs(obj - want_obj) <= 1e-9 * abs(want_obj)
        assert np.linalg.norm(grad - want_grad) <= 1e-6 * np.linalg.norm(want_grad)

        fd = finite_diff_grad(
            lambda v: exact_objective(KL, KL_LOG, scorer, v, pos, neg), w, 1e-5
        )
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)

    @pytest.mark.parametrize("outer,want", [(KL_LOG, 0.0), (IDENTITY_OUTER, 1.0)],
                             ids=["kl_log", "identity"])
    def test_every_pair_inert(self, outer, want):
        # Every positive outscores every negative by more than the unit
        # margin: every kl_opauc pair has loss exactly 1 and slope exactly 0.
        pos, neg = _separated_instance(np.random.default_rng(12))
        obj, grad = exact_oracle(KL, outer, LIN3, SEPARATING_W, pos, neg)
        assert obj == want
        np.testing.assert_array_equal(grad, np.zeros(3))

    @pytest.mark.parametrize("outer", ALL_OUTERS, ids=lambda o: o.kind)
    def test_exact_ties_at_the_margin(self, outer):
        # With w = [1], scores are the features: b + 1.0 == a exactly for the
        # pairs (2.0, 1.0) and (3.0, 2.0), where m = 0.
        lin1 = ScorerSpec("linear", 1)
        pos = np.array([[2.0], [0.5], [3.0], [2.0], [1.25]])
        neg = np.array([[1.0], [0.0], [2.0], [1.0], [1.5], [1.0]])
        _assert_matches_direct(KL, outer, lin1, np.array([1.0]), pos, neg)

    @pytest.mark.parametrize("outer", ALL_OUTERS, ids=lambda o: o.kind)
    def test_duplicate_scores_on_both_sides(self, outer):
        rng = np.random.default_rng(13)
        pos, neg = _instance(rng, 6, 9)
        pos = np.repeat(pos, [1, 4, 2, 7, 1, 3], axis=0)
        neg = np.concatenate([neg, neg[::2], neg[:3]])
        pos, neg = pos[rng.permutation(len(pos))], neg[rng.permutation(len(neg))]
        _assert_matches_direct(KL, outer, LIN3, 0.6 * rng.standard_normal(3), pos, neg)

    @pytest.mark.parametrize("block_pairs", [2**15, 256])
    @pytest.mark.parametrize("outer", ALL_OUTERS, ids=lambda o: o.kind)
    def test_blocks_of_differing_widths(self, outer, block_pairs, monkeypatch):
        # Scores spread over several margins, so a block's skipped columns
        # grow with its first positive, and its rows grow as its width falls.
        rng = np.random.default_rng(14)
        n_pos, n_neg = 300, 700
        pos, neg = _instance(rng, n_pos, n_neg)
        w = np.array([2.0, 0.3, -0.2])
        name = "_kl_log_block" if outer is KL_LOG else "_direct_block"
        block, blocks = getattr(losses, name), []

        def spy(loss_spec, outer_spec, a, b, inert):
            blocks.append((a.shape[0], b.shape[0], inert))
            return block(loss_spec, outer_spec, a, b, inert)

        monkeypatch.setattr(losses, name, spy)
        monkeypatch.setattr(losses, "_BLOCK_PAIRS", block_pairs)
        exact_oracle(KL, outer, LIN3, w, pos, neg)
        rows, widths, inert = (np.array(col) for col in zip(*blocks))
        assert rows.sum() == n_pos and np.all(widths + inert == n_neg)
        assert np.all(rows * widths <= np.maximum(block_pairs, widths))
        assert len(set(widths)) >= 4 and inert[0] < n_neg // 4 and inert[-1] > n_neg // 2
        _assert_matches_direct(KL, outer, LIN3, w, pos, neg)

    @pytest.mark.parametrize("side", ["pos", "neg"])
    @pytest.mark.parametrize("outer", ALL_OUTERS, ids=lambda o: o.kind)
    @pytest.mark.parametrize("loss_spec", ALL_LOSSES, ids=lambda s: s.kind)
    def test_nan_score_makes_objective_non_finite(self, loss_spec, outer, side):
        # Every finite kl_opauc pair is inert, so only the NaN row or column
        # can keep the objective from a finite value.
        pos, neg = _separated_instance(np.random.default_rng(15))
        (pos if side == "pos" else neg)[7] = np.nan
        with np.errstate(invalid="ignore"):
            obj, _ = exact_oracle(loss_spec, outer, LIN3, SEPARATING_W, pos, neg)
        assert not math.isfinite(obj)

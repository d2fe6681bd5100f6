"""AUC / partial AUC: examples, brute-force equality, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import auc_bruteforce, partial_auc_bruteforce

from fedcpr.metrics import ScoredEval, auc, auc_and_partial_aucs, partial_auc


class TestAuc:
    def test_perfect_separation(self):
        assert auc(ScoredEval([2.0], [1.0])) == 1.0

    def test_single_tie(self):
        assert auc(ScoredEval([1.0], [1.0])) == 0.5

    def test_four_pair_hand_count(self):
        # (3>2) + (3>0) + (1<2 -> 0) + (1>0) = 3 of 4
        assert auc(ScoredEval([3.0, 1.0], [2.0, 0.0])) == 0.75

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            auc(ScoredEval([], [1.0]))
        with pytest.raises(ValueError):
            auc(ScoredEval([1.0], []))

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc(ScoredEval([1.0, np.nan], [0.0])))
        assert np.isnan(auc(ScoredEval([1.0], [np.nan, 0.0])))

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = int(rng.integers(1, 51))
            q = int(rng.integers(1, 51))
            # Integer scores force plenty of exact ties.
            ev = ScoredEval(
                rng.integers(0, 8, p).astype(float),
                rng.integers(0, 8, q).astype(float),
            )
            assert auc(ev) == auc_bruteforce(ev)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for transform in (np.exp, lambda s: s**3 + 2 * s, lambda s: 5 * s - 1):
            ev = ScoredEval(rng.normal(1, 1, 23), rng.normal(0, 1, 37))
            ev2 = ScoredEval(transform(ev.pos_scores), transform(ev.neg_scores))
            np.testing.assert_allclose(auc(ev2), auc(ev), rtol=1e-12)
            np.testing.assert_allclose(
                partial_auc(ev2, 0.3), partial_auc(ev, 0.3), rtol=1e-12
            )


class TestPartialAuc:
    def test_full_fpr_equals_auc(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            ev = ScoredEval(rng.normal(1, 1, 11), rng.normal(0, 1, 17))
            assert partial_auc(ev, 1.0) == auc(ev)

    def test_perfect_ranking_any_fpr(self):
        ev = ScoredEval([5.0, 6.0, 7.0], [1.0, 2.0, 3.0, 4.0])
        for fpr in (0.25, 0.5, 0.75, 1.0):
            assert partial_auc(ev, fpr) == 1.0

    def test_hardest_negative_hand_example(self):
        # Hardest half of {2, 0} is {2}; wins: (3>2) + (1<2 -> 0) = 1 of 2.
        assert partial_auc(ScoredEval([3.0, 1.0], [2.0, 0.0]), 0.5) == 0.5

    def test_zero_kept_negatives_rejected(self):
        with pytest.raises(ValueError):
            partial_auc(ScoredEval([1.0], [0.0, 0.5]), 0.3)

    @pytest.mark.parametrize("q", [49, 98, 103, 107, 161])
    def test_cap_of_exactly_one_negative_keeps_it(self, q):
        # fpr_max = 1/q keeps the one hardest negative, 0.0, although
        # (1/q) * q rounds below 1 for these q; the positive beats it.
        ev = ScoredEval([1.0], [0.0] * q)
        assert partial_auc(ev, 1 / q) == partial_auc_bruteforce(ev, 1 / q) == 1.0

    def test_fpr_out_of_range(self):
        ev = ScoredEval([1.0], [0.0])
        with pytest.raises(ValueError):
            partial_auc(ev, 0.0)
        with pytest.raises(ValueError):
            partial_auc(ev, 1.5)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            p = int(rng.integers(1, 40))
            q = int(rng.integers(4, 50))
            ev = ScoredEval(
                rng.integers(0, 6, p).astype(float),
                rng.integers(0, 6, q).astype(float),
            )
            for fpr in (0.3, 0.5, 1.0):
                assert partial_auc(ev, fpr) == partial_auc_bruteforce(ev, fpr)

    def test_nonincreasing_on_hard_negative_concentration(self):
        # Errors concentrated among the hardest negatives: shrinking the FPR
        # budget focuses on exactly the negatives that outrank positives.
        ev = ScoredEval([5.0, 4.0], [6.0, 4.5, 1.0, 0.5, 0.1, 0.0])
        vals = [partial_auc(ev, f) for f in (1.0, 0.5, 1.0 / 3.0)]
        assert vals[0] >= vals[1] >= vals[2]


# Integer-valued scores from a narrow range: ties on both sides and at the
# boundary of the kept negatives.
_tie_heavy = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40)


class TestOneSortRoute:
    @settings(max_examples=200, deadline=None)
    @given(pos=_tie_heavy, neg=_tie_heavy)
    def test_bit_equal_to_bruteforce_for_every_fpr(self, pos, neg):
        ev = ScoredEval(pos, neg)
        q = len(neg)
        # fpr = k/q keeps k negatives (or k - 1 when k/q rounds down), for
        # every k; plus fprs between the grid points.
        fprs = sorted({k / q for k in range(1, q + 1)}
                      | {(k + 0.5) / q for k in range(1, q)})
        auc_val, paucs = auc_and_partial_aucs(ev, fprs)
        assert auc_val == auc_bruteforce(ev) == auc(ev)
        for f in fprs:
            assert paucs[f] == partial_auc_bruteforce(ev, f) == partial_auc(ev, f)

    def test_validates_each_fpr(self):
        ev = ScoredEval([1.0], [0.0, 0.5])
        with pytest.raises(ValueError):
            auc_and_partial_aucs(ev, (0.5, 0.3))
        with pytest.raises(ValueError):
            auc_and_partial_aucs(ev, (1.5,))

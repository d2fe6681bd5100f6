"""AUC / partial AUC: examples, brute-force equality, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import auc_bruteforce, partial_auc_bruteforce

from fedcpr.metrics import auc, auc_and_partial_aucs, partial_auc


class TestAuc:
    def test_perfect_separation(self):
        assert auc([2.0], [1.0]) == 1.0

    def test_single_tie(self):
        assert auc([1.0], [1.0]) == 0.5

    def test_four_pair_hand_count(self):
        # (3>2) + (3>0) + (1<2 -> 0) + (1>0) = 3 of 4
        assert auc([3.0, 1.0], [2.0, 0.0]) == 0.75

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            auc([], [1.0])
        with pytest.raises(ValueError):
            auc([1.0], [])

    @pytest.mark.parametrize("metric", [
        auc, lambda pos, neg: partial_auc(pos, neg, 0.5),
        lambda pos, neg: auc_and_partial_aucs(pos, neg, (0.5,)),
    ], ids=["auc", "partial_auc", "auc_and_partial_aucs"])
    @pytest.mark.parametrize("pos,neg,named", [
        (np.zeros((2, 3)), np.zeros((2, 4)), "pos scores must be 1-D, got shape (2, 3)"),
        (np.zeros((1, 2)), [0.0, 1.5, 3.0], "pos scores must be 1-D, got shape (1, 2)"),
        ([1.0], np.zeros((4, 1)), "neg scores must be 1-D, got shape (4, 1)"),
    ])
    def test_score_array_of_more_than_one_dimension_rejected(self, metric, pos, neg, named):
        with pytest.raises(ValueError) as exc:
            metric(pos, neg)
        assert str(exc.value) == named

    def test_scalar_is_one_score(self):
        assert auc(1.0, [0.0, 2.0]) == auc([1.0], [0.0, 2.0]) == 0.5
        assert auc([1.0, 3.0], 2.0) == partial_auc([1.0, 3.0], 2.0, 1.0) == 0.5

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc([1.0, np.nan], [0.0]))
        assert np.isnan(auc([1.0], [np.nan, 0.0]))

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = int(rng.integers(1, 51))
            q = int(rng.integers(1, 51))
            # Integer scores force plenty of exact ties.
            pos = rng.integers(0, 8, p).astype(float)
            neg = rng.integers(0, 8, q).astype(float)
            assert auc(pos, neg) == auc_bruteforce(pos, neg)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for transform in (np.exp, lambda s: s**3 + 2 * s, lambda s: 5 * s - 1):
            pos, neg = rng.normal(1, 1, 23), rng.normal(0, 1, 37)
            pos2, neg2 = transform(pos), transform(neg)
            np.testing.assert_allclose(auc(pos2, neg2), auc(pos, neg), rtol=1e-12)
            np.testing.assert_allclose(
                partial_auc(pos2, neg2, 0.3), partial_auc(pos, neg, 0.3), rtol=1e-12
            )


class TestPartialAuc:
    def test_full_fpr_equals_auc(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            pos, neg = rng.normal(1, 1, 11), rng.normal(0, 1, 17)
            assert partial_auc(pos, neg, 1.0) == auc(pos, neg)

    def test_perfect_ranking_any_fpr(self):
        pos, neg = [5.0, 6.0, 7.0], [1.0, 2.0, 3.0, 4.0]
        for fpr in (0.25, 0.5, 0.75, 1.0):
            assert partial_auc(pos, neg, fpr) == 1.0

    def test_hardest_negative_hand_example(self):
        # Hardest half of {2, 0} is {2}; wins: (3>2) + (1<2 -> 0) = 1 of 2.
        assert partial_auc([3.0, 1.0], [2.0, 0.0], 0.5) == 0.5

    def test_zero_kept_negatives_rejected(self):
        with pytest.raises(ValueError):
            partial_auc([1.0], [0.0, 0.5], 0.3)

    @pytest.mark.parametrize("q", [49, 98, 103, 107, 161])
    def test_cap_of_exactly_one_negative_keeps_it(self, q):
        # fpr_max = 1/q keeps the one hardest negative, 0.0, although
        # (1/q) * q rounds below 1 for these q; the positive beats it.
        pos, neg = [1.0], [0.0] * q
        assert partial_auc(pos, neg, 1 / q) == partial_auc_bruteforce(pos, neg, 1 / q) == 1.0

    def test_fpr_out_of_range(self):
        with pytest.raises(ValueError):
            partial_auc([1.0], [0.0], 0.0)
        with pytest.raises(ValueError):
            partial_auc([1.0], [0.0], 1.5)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            p = int(rng.integers(1, 40))
            q = int(rng.integers(4, 50))
            pos = rng.integers(0, 6, p).astype(float)
            neg = rng.integers(0, 6, q).astype(float)
            for fpr in (0.3, 0.5, 1.0):
                assert partial_auc(pos, neg, fpr) == partial_auc_bruteforce(pos, neg, fpr)

    def test_nonincreasing_on_hard_negative_concentration(self):
        # Errors concentrated among the hardest negatives: shrinking the FPR
        # budget focuses on exactly the negatives that outrank positives.
        pos, neg = [5.0, 4.0], [6.0, 4.5, 1.0, 0.5, 0.1, 0.0]
        vals = [partial_auc(pos, neg, f) for f in (1.0, 0.5, 1.0 / 3.0)]
        assert vals[0] >= vals[1] >= vals[2]


# Integer-valued scores from a narrow range: ties on both sides and at the
# boundary of the kept negatives.
_tie_heavy = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40)


class TestOneSortRoute:
    @settings(max_examples=200, deadline=None)
    @given(pos=_tie_heavy, neg=_tie_heavy)
    def test_bit_equal_to_bruteforce_for_every_fpr(self, pos, neg):
        q = len(neg)
        # fpr = k/q keeps k negatives (or k - 1 when k/q rounds down), for
        # every k; plus fprs between the grid points.
        fprs = sorted({k / q for k in range(1, q + 1)}
                      | {(k + 0.5) / q for k in range(1, q)})
        auc_val, paucs = auc_and_partial_aucs(pos, neg, fprs)
        assert auc_val == auc_bruteforce(pos, neg) == auc(pos, neg)
        for f in fprs:
            assert paucs[f] == partial_auc_bruteforce(pos, neg, f) == partial_auc(pos, neg, f)

    def test_validates_each_fpr(self):
        with pytest.raises(ValueError):
            auc_and_partial_aucs([1.0], [0.0, 0.5], (0.5, 0.3))
        with pytest.raises(ValueError):
            auc_and_partial_aucs([1.0], [0.0, 0.5], (1.5,))

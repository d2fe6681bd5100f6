"""Data generation, partitioning, heterogeneity, and flipping."""

import numpy as np
import pytest

from fedcpr.data import (
    DataConfig,
    FederatedDataset,
    apply_heterogeneity,
    build_dataset,
    flip_labels,
    generate,
)
from fedcpr.metrics import auc
from fedcpr.model import ScorerSpec, score_many


def clean_config(**kw):
    base = dict(
        n_pos_per_client=4,
        n_neg_per_client=20,
        input_dim=6,
        n_clients=2,
        hetero_step=0.0,
        hetero_base=0.0,
        hetero_var=0.0,
        seed=7,
    )
    base.update(kw)
    return DataConfig(**base)


class TestGenerate:
    def test_counts(self):
        ds = generate(clean_config())
        assert (ds.pos_ids.shape, ds.pos_X.shape) == ((2, 4), (2, 4, 6))
        assert (ds.neg_ids.shape, ds.neg_X.shape) == ((2, 20), (2, 20, 6))

    def test_single_client_union_is_everything(self):
        ds = generate(clean_config(n_clients=1, n_pos_per_client=8,
                                   n_neg_per_client=40))
        ids, X = ds.pos_union()
        assert ids.size == 8 and X.shape == (8, 6)
        np.testing.assert_array_equal(ids, ds.pos_ids[0])

    def test_bitwise_determinism(self):
        a = generate(clean_config())
        b = generate(clean_config())
        np.testing.assert_array_equal(a.pos_X, b.pos_X)
        np.testing.assert_array_equal(a.neg_X, b.neg_X)
        np.testing.assert_array_equal(a.eval_pos_X, b.eval_pos_X)

    def test_ids_unique_across_federation(self):
        ds = generate(clean_config())
        all_ids = np.concatenate([ds.pos_ids.ravel(), ds.neg_ids.ravel()])
        assert all_ids.size == np.unique(all_ids).size

    def test_same_global_pool_for_any_client_count(self):
        # Fixed totals: the union is bitwise identical however it is sharded.
        variants = [
            clean_config(n_clients=1, n_pos_per_client=8, n_neg_per_client=40),
            clean_config(n_clients=2, n_pos_per_client=4, n_neg_per_client=20),
            clean_config(n_clients=4, n_pos_per_client=2, n_neg_per_client=10),
        ]
        pools = [generate(c).pos_union()[1] for c in variants]
        np.testing.assert_array_equal(pools[0], pools[1])
        np.testing.assert_array_equal(pools[0], pools[2])

    def test_linear_model_auc_in_claimed_band(self):
        cfg = clean_config(n_pos_per_client=100, n_neg_per_client=500, n_clients=2)
        ds = generate(cfg)
        spec = ScorerSpec("linear", 6)
        w = np.ones(6)  # aligned with the separation direction
        pos, neg = score_many(spec, w, ds.eval_pos_X), score_many(spec, w, ds.eval_neg_X)
        assert 0.85 <= auc(pos, neg) <= 0.95

    def test_eval_split_sizes(self):
        ds = generate(clean_config())
        assert ds.eval_pos_X.shape[0] == 4 * 8
        assert ds.eval_neg_X.shape[0] == 4 * 40

    def test_config_validation(self):
        with pytest.raises(ValueError):
            clean_config(n_pos_per_client=0)
        with pytest.raises(ValueError):
            DataConfig(1, 1, 1, 1, flip_fraction=1.5)


class TestStackedShape:
    def _arrays(self, n_pos=(3, 3), n_neg=(5, 5)):
        """Two clients' (pos_ids, pos_X, neg_ids, neg_X) rows of 2 features,
        as lists, and a held-out split."""
        rows = [(np.arange(p), np.zeros((p, 2)), np.arange(q), np.zeros((q, 2)))
                for p, q in zip(n_pos, n_neg)]
        return [list(column) for column in zip(*rows)] + [np.zeros((4, 2)), np.zeros((4, 2))]

    def test_equal_rows_stack(self):
        ds = FederatedDataset(*self._arrays())
        assert ds.n_clients == 2
        assert (ds.pos_X.shape, ds.neg_X.shape) == ((2, 3, 2), (2, 5, 2))

    @pytest.mark.parametrize("n_pos, n_neg, field", [
        ((3, 4), (5, 5), "pos_ids"),
        ((3, 3), (5, 2), "neg_ids"),
    ])
    def test_unequal_client_rows_rejected(self, n_pos, n_neg, field):
        with pytest.raises(ValueError, match=f"^{field}: every client must hold as many rows"):
            FederatedDataset(*self._arrays(n_pos, n_neg))

    @pytest.mark.parametrize("index, value, field", [
        (1, np.zeros((2, 4, 2)), "pos_X"),   # 4 rows against pos_ids' 3
        (2, np.zeros((3, 5), dtype=int), "neg_ids"),  # 3 clients against 2
        (3, np.zeros((2, 5, 3)), "neg_X"),  # 3 features against pos_X's 2
        (3, np.zeros((2, 5)), "neg_X"),  # no feature axis
    ])
    def test_disagreeing_shapes_rejected(self, index, value, field):
        arrays = self._arrays()
        arrays[index] = value
        with pytest.raises(ValueError, match=f"^{field}: shape "):
            FederatedDataset(*arrays)


class TestHeterogeneity:
    def test_all_zero_parameters_are_identity(self):
        ds = generate(clean_config())
        assert apply_heterogeneity(ds, clean_config()) is ds

    def test_client_mean_schedule(self):
        cfg = clean_config(n_clients=16, hetero_base=-0.08, hetero_step=0.01,
                           hetero_var=0.04)
        assert cfg.client_mean_shift(8) == pytest.approx(0.0)
        assert cfg.client_mean_shift(0) == pytest.approx(-0.08)
        assert cfg.client_mean_shift(15) == pytest.approx(0.07)

    def test_injected_mean_matches_monte_carlo(self):
        # Mean feature shift on client i estimates mu_i to within 3 standard
        # errors of the noise mean over n_samples * dim draws.
        cfg = clean_config(
            n_pos_per_client=2000,
            n_neg_per_client=8000,
            n_clients=1,
            input_dim=1,
            hetero_base=-0.08,
            hetero_step=0.01,
            hetero_var=0.04,
        )
        clean = generate(cfg)
        noisy = apply_heterogeneity(clean, cfg)
        n_draws = 10_000 * cfg.input_dim
        shift = (
            np.concatenate([noisy.pos_X[0], noisy.neg_X[0]]).mean()
            - np.concatenate([clean.pos_X[0], clean.neg_X[0]]).mean()
        )
        se = np.sqrt(0.04 / n_draws)
        assert abs(shift - (-0.08)) <= 3 * se

    def test_eval_split_never_shifted(self):
        cfg = clean_config(hetero_base=0.5, hetero_var=0.04)
        clean = generate(cfg)
        noisy = apply_heterogeneity(clean, cfg)
        np.testing.assert_array_equal(clean.eval_pos_X, noisy.eval_pos_X)
        np.testing.assert_array_equal(clean.eval_neg_X, noisy.eval_neg_X)

    def test_client_count_mismatch_rejected(self):
        ds = generate(clean_config())
        with pytest.raises(ValueError):
            apply_heterogeneity(ds, clean_config(n_clients=4, hetero_var=0.01))


class TestFlipLabels:
    def test_zero_fraction_is_identity(self):
        ds = generate(clean_config())
        assert flip_labels(ds, 0.0, 7) is ds

    def test_full_flip_swaps_sides(self):
        ds = generate(clean_config())
        flipped = flip_labels(ds, 1.0, 7)
        assert flipped.pos_ids.shape == ds.neg_ids.shape
        assert flipped.neg_ids.shape == ds.pos_ids.shape
        np.testing.assert_array_equal(np.sort(flipped.pos_ids), np.sort(ds.neg_ids))

    def test_counting_example(self):
        cfg = clean_config(n_pos_per_client=10, n_neg_per_client=50, n_clients=3)
        flipped = flip_labels(generate(cfg), 0.2, 7)
        assert flipped.pos_ids.shape == (3, 10 - 2 + 10)
        assert flipped.neg_ids.shape == (3, 50 - 10 + 2)

    def test_preserves_ids_features_and_totals(self):
        ds = generate(clean_config())
        flipped = flip_labels(ds, 0.3, 11)
        for c in range(ds.n_clients):
            ids_before = np.sort(np.concatenate([ds.pos_ids[c], ds.neg_ids[c]]))
            ids_after = np.sort(np.concatenate([flipped.pos_ids[c], flipped.neg_ids[c]]))
            np.testing.assert_array_equal(ids_before, ids_after)
            # features travel with their ids
            feat = {int(i): row for i, row in zip(ds.pos_ids[c], ds.pos_X[c])}
            feat.update({int(i): row for i, row in zip(ds.neg_ids[c], ds.neg_X[c])})
            for i, row in zip(flipped.pos_ids[c], flipped.pos_X[c]):
                np.testing.assert_array_equal(row, feat[int(i)])

    def test_deterministic_in_seed(self):
        ds = generate(clean_config())
        a = flip_labels(ds, 0.25, 3)
        b = flip_labels(ds, 0.25, 3)
        np.testing.assert_array_equal(a.pos_ids, b.pos_ids)

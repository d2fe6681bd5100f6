"""Data generation, partitioning, heterogeneity, flipping, and export."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcpr.data import (
    DataConfig,
    apply_heterogeneity,
    build_dataset,
    dump_dataset,
    flip_labels,
    generate,
    load_dataset,
)
from fedcpr.metrics import ScoredEval, auc
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
        assert sum(s.n_pos for s in ds.shards) == 8
        assert sum(s.n_neg for s in ds.shards) == 40
        assert all(s.n_pos == 4 and s.n_neg == 20 for s in ds.shards)

    def test_single_client_union_is_everything(self):
        ds = generate(clean_config(n_clients=1, n_pos_per_client=8,
                                   n_neg_per_client=40))
        ids, X = ds.pos_union()
        assert ids.size == 8 and X.shape == (8, 6)
        np.testing.assert_array_equal(ids, ds.shards[0].pos_ids)

    def test_bitwise_determinism(self):
        a = generate(clean_config())
        b = generate(clean_config())
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa.pos_X, sb.pos_X)
            np.testing.assert_array_equal(sa.neg_X, sb.neg_X)
        np.testing.assert_array_equal(a.eval_pos_X, b.eval_pos_X)

    def test_ids_unique_across_federation(self):
        ds = generate(clean_config())
        all_ids = np.concatenate(
            [np.concatenate([s.pos_ids, s.neg_ids]) for s in ds.shards]
            + [ds.eval_pos_ids, ds.eval_neg_ids]
        )
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
        ev = ScoredEval(
            score_many(spec, w, ds.eval_pos_X), score_many(spec, w, ds.eval_neg_X)
        )
        assert 0.85 <= auc(ev) <= 0.95

    def test_eval_split_sizes(self):
        ds = generate(clean_config())
        assert ds.eval_pos_X.shape[0] == 4 * 8
        assert ds.eval_neg_X.shape[0] == 4 * 40

    def test_config_validation(self):
        with pytest.raises(ValueError):
            clean_config(n_pos_per_client=0)
        with pytest.raises(ValueError):
            DataConfig(1, 1, 1, 1, flip_fraction=1.5)


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
            np.concatenate([noisy.shards[0].pos_X, noisy.shards[0].neg_X]).mean()
            - np.concatenate([clean.shards[0].pos_X, clean.shards[0].neg_X]).mean()
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
        for before, after in zip(ds.shards, flipped.shards):
            assert after.n_pos == before.n_neg
            assert after.n_neg == before.n_pos
            np.testing.assert_array_equal(np.sort(after.pos_ids), np.sort(before.neg_ids))

    def test_counting_example(self):
        cfg = clean_config(n_pos_per_client=10, n_neg_per_client=50, n_clients=3)
        flipped = flip_labels(generate(cfg), 0.2, 7)
        for shard in flipped.shards:
            assert shard.n_pos == 10 - 2 + 10
            assert shard.n_neg == 50 - 10 + 2

    def test_preserves_ids_features_and_totals(self):
        ds = generate(clean_config())
        flipped = flip_labels(ds, 0.3, 11)
        for before, after in zip(ds.shards, flipped.shards):
            assert before.n_pos + before.n_neg == after.n_pos + after.n_neg
            ids_before = np.sort(np.concatenate([before.pos_ids, before.neg_ids]))
            ids_after = np.sort(np.concatenate([after.pos_ids, after.neg_ids]))
            np.testing.assert_array_equal(ids_before, ids_after)
            # features travel with their ids
            feat = {int(i): row for i, row in zip(before.pos_ids, before.pos_X)}
            feat.update({int(i): row for i, row in zip(before.neg_ids, before.neg_X)})
            for i, row in zip(after.pos_ids, after.pos_X):
                np.testing.assert_array_equal(row, feat[int(i)])

    def test_deterministic_in_seed(self):
        ds = generate(clean_config())
        a = flip_labels(ds, 0.25, 3)
        b = flip_labels(ds, 0.25, 3)
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa.pos_ids, sb.pos_ids)


class TestExport:
    def test_round_trip_exact(self):
        cfg = clean_config(hetero_var=0.04, hetero_base=-0.08, hetero_step=0.01,
                           flip_fraction=0.2)
        ds = build_dataset(cfg)
        text = dump_dataset(ds)
        back = load_dataset(text)
        assert dump_dataset(back) == text
        for sa, sb in zip(ds.shards, back.shards):
            np.testing.assert_array_equal(sa.pos_X, sb.pos_X)
            np.testing.assert_array_equal(sa.neg_X, sb.neg_X)
            np.testing.assert_array_equal(sa.pos_ids, sb.pos_ids)
        np.testing.assert_array_equal(ds.eval_neg_X, back.eval_neg_X)

    def test_line_format(self):
        ds = generate(clean_config(n_pos_per_client=1, n_neg_per_client=1,
                                   n_clients=1, input_dim=2))
        line = dump_dataset(ds).splitlines()[0]
        sid, group, client, feats = line.split("\t")
        assert (sid, group, client) == ("0", "0", "0")
        assert len(feats.split(",")) == 2


def _edit_field(line: str, index: int, edit) -> str:
    fields = line.split("\t")
    fields[index] = edit(fields[index])
    return "\t".join(fields)


def _drop_feature(feats: str) -> str:
    return feats.rsplit(",", 1)[0]


# name -> (edit of the dumped lines, the line the error names, its message)
_MALFORMED = {
    "group other than 0 or 1": (
        lambda lines: lines[:1] + [_edit_field(lines[1], 1, lambda _: "2")] + lines[2:],
        2, "bad group value: 2"),
    "client below -1": (
        lambda lines: [_edit_field(lines[0], 2, lambda _: "-2")] + lines[1:],
        1, "client must be >= -1"),
    "width differs between clients": (
        lambda lines: [_edit_field(ln, 3, _drop_feature) if ln.split("\t")[2] == "1" else ln
                       for ln in lines],
        6, "2 features, the first row has 3"),
    "width differs inside a client": (
        lambda lines: lines[:1] + [_edit_field(lines[1], 3, _drop_feature)] + lines[2:],
        2, "2 features, the first row has 3"),
    "duplicate sample id": (
        lambda lines: lines[:2] + [_edit_field(lines[2], 0, lambda _: lines[0].split("\t")[0])]
        + lines[3:],
        3, "duplicate sample id 0"),
    "three fields": (
        lambda lines: lines[:3] + ["\t".join(lines[3].split("\t")[:3])] + lines[4:],
        4, "expected 4 tab-separated fields, got 3"),
    "sample id not an integer": (
        lambda lines: lines[:1] + [_edit_field(lines[1], 0, lambda _: "x")] + lines[2:],
        2, re.escape("invalid literal for int() with base 10: 'x'")),
    "group not an integer": (
        lambda lines: lines[:2] + [_edit_field(lines[2], 1, lambda _: "1.0")] + lines[3:],
        3, re.escape("invalid literal for int() with base 10: '1.0'")),
    "client not an integer": (
        lambda lines: lines[:4] + [_edit_field(lines[4], 2, lambda _: "one")] + lines[5:],
        5, re.escape("invalid literal for int() with base 10: 'one'")),
    "feature not a number": (
        lambda lines: lines[:1] + [_edit_field(lines[1], 3, lambda f: "abc," + f.split(",", 1)[1])]
        + lines[2:],
        2, "could not convert string to float: 'abc'"),
    "empty feature": (
        lambda lines: lines[:2] + [_edit_field(lines[2], 3, lambda f: f + ",")] + lines[3:],
        3, "could not convert string to float: ''"),
    "NaN feature": (
        lambda lines: lines[:3] + [_edit_field(lines[3], 3, lambda f: "nan," + f.split(",", 1)[1])]
        + lines[4:],
        4, "features must be finite, got 'nan,"),
    "infinite feature": (
        lambda lines: lines[:5] + [_edit_field(lines[5], 3, lambda f: _drop_feature(f) + ",-inf")]
        + lines[6:],
        6, "features must be finite, got '.*,-inf'"),
}


class TestLoadRejects:
    @pytest.mark.parametrize("case", list(_MALFORMED))
    def test_malformed_line_is_named(self, case):
        edit, lineno, message = _MALFORMED[case]
        ds = generate(clean_config(n_pos_per_client=2, n_neg_per_client=3, input_dim=3))
        lines = edit(dump_dataset(ds).splitlines())
        with pytest.raises(ValueError, match=f"^line {lineno}: {message}"):
            load_dataset("\n".join(lines) + "\n")

    def test_client_without_negatives_is_named(self):
        ds = generate(clean_config(n_pos_per_client=2, n_neg_per_client=3, input_dim=3))
        lines = [ln for ln in dump_dataset(ds).splitlines() if ln.split("\t")[1:3] != ["1", "0"]]
        with pytest.raises(ValueError, match="^missing records for client=0 group=1$"):
            load_dataset("\n".join(lines) + "\n")


_data_configs = st.builds(
    clean_config,
    n_pos_per_client=st.integers(1, 4),
    n_neg_per_client=st.integers(1, 5),
    input_dim=st.integers(1, 3),
    n_clients=st.integers(1, 3),
    hetero_step=st.floats(-0.5, 0.5),
    hetero_base=st.floats(-1.0, 1.0),
    hetero_var=st.floats(0.0, 2.0),
    flip_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)


class TestExportProperties:
    @settings(max_examples=50, deadline=None)
    @given(_data_configs)
    def test_load_of_dump_is_the_dataset_bit_for_bit(self, cfg):
        ds = build_dataset(cfg)
        text = dump_dataset(ds)
        back = load_dataset(text)

        def columns(d):
            cols = [d.eval_pos_ids, d.eval_pos_X, d.eval_neg_ids, d.eval_neg_X]
            for s in d.shards:
                cols += [s.pos_ids, s.pos_X, s.neg_ids, s.neg_X]
            return [(c.dtype.str, c.shape, c.tobytes()) for c in cols]

        assert columns(back) == columns(ds)
        assert dump_dataset(back) == text

"""Synthetic two-Gaussian binary data, client partitioning, heterogeneity
injection, and label corruption.

Positives and negatives are drawn from two Gaussian clusters separated so a
linear model reaches AUC ~0.9 on clean data. The global pools are drawn as
a function of (seed, total counts) only and then partitioned contiguously
into clients, so regenerating with a different client count but the same
totals yields bitwise-identical global data, which is what makes the
fixed-total vary-N ablation well posed.

Per-client heterogeneity adds N(mu_i, hetero_var) noise to every feature on
client i, mu_i = hetero_base + i*hetero_step. Label flipping moves a
uniformly random floor(fraction * count) subset of each side to the other
side, per client, before any training. The held-out evaluation split is
always clean: no shift, no flips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import check_numbers
from .rng import substream

# Evaluation split size as a multiple of the total per-class training count.
EVAL_MULTIPLIER = 4


@dataclass(frozen=True)
class DataConfig:
    n_pos_per_client: int
    n_neg_per_client: int
    input_dim: int
    n_clients: int
    hetero_step: float = 0.01
    hetero_base: float = -0.08
    hetero_var: float = 0.04
    flip_fraction: float = 0.0
    seed: int = 0
    cluster_sep: float = 1.9
    cluster_std: float = 1.0

    def __post_init__(self) -> None:
        # Each message starts with the field's config key name.
        check_numbers(self)
        for name in ("n_pos_per_client", "n_neg_per_client", "input_dim", "n_clients"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0.0 <= self.flip_fraction <= 1.0):
            raise ValueError("flip_fraction must be in [0, 1]")
        if self.hetero_var < 0:
            raise ValueError("hetero_var must be >= 0")
        if self.cluster_std <= 0:
            raise ValueError("cluster_std must be positive")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed must be a signed 64-bit integer")

    def client_mean_shift(self, client: int) -> float:
        return self.hetero_base + client * self.hetero_step


@dataclass(frozen=True)
class ClientShard:
    """One client's local data: positive side (S1) and negative side (S2)."""

    pos_ids: np.ndarray
    pos_X: np.ndarray
    neg_ids: np.ndarray
    neg_X: np.ndarray

    @property
    def n_pos(self) -> int:
        return self.pos_ids.size

    @property
    def n_neg(self) -> int:
        return self.neg_ids.size


@dataclass(frozen=True)
class FederatedDataset:
    shards: tuple[ClientShard, ...]
    eval_pos_ids: np.ndarray
    eval_pos_X: np.ndarray
    eval_neg_ids: np.ndarray
    eval_neg_X: np.ndarray

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    def pos_union(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, features) of the full positive set in client order."""
        ids = np.concatenate([s.pos_ids for s in self.shards])
        X = np.vstack([s.pos_X for s in self.shards])
        return ids, X

    def neg_union(self) -> tuple[np.ndarray, np.ndarray]:
        ids = np.concatenate([s.neg_ids for s in self.shards])
        X = np.vstack([s.neg_X for s in self.shards])
        return ids, X


def _cluster_means(config: DataConfig) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * config.cluster_sep / np.sqrt(config.input_dim)
    mean = np.full(config.input_dim, half)
    return mean, -mean


def generate(config: DataConfig) -> FederatedDataset:
    """Draw the federation's data. Pure function of the config."""
    pos_mean, neg_mean = _cluster_means(config)
    total_pos = config.n_pos_per_client * config.n_clients
    total_neg = config.n_neg_per_client * config.n_clients

    def draw(tag: str, count: int, mean: np.ndarray) -> np.ndarray:
        g = substream(config.seed, "data", tag)
        return mean + config.cluster_std * g.standard_normal((count, config.input_dim))

    pos_X = draw("pos", total_pos, pos_mean)
    neg_X = draw("neg", total_neg, neg_mean)
    eval_pos_X = draw("eval-pos", EVAL_MULTIPLIER * total_pos, pos_mean)
    eval_neg_X = draw("eval-neg", EVAL_MULTIPLIER * total_neg, neg_mean)

    next_id = 0

    def ids(count: int) -> np.ndarray:
        nonlocal next_id
        out = np.arange(next_id, next_id + count, dtype=np.int64)
        next_id += count
        return out

    pos_ids, neg_ids = ids(total_pos), ids(total_neg)
    eval_pos_ids, eval_neg_ids = ids(eval_pos_X.shape[0]), ids(eval_neg_X.shape[0])

    shards = []
    for i in range(config.n_clients):
        ps = slice(i * config.n_pos_per_client, (i + 1) * config.n_pos_per_client)
        ns = slice(i * config.n_neg_per_client, (i + 1) * config.n_neg_per_client)
        shards.append(
            ClientShard(pos_ids[ps], pos_X[ps], neg_ids[ns], neg_X[ns])
        )
    return FederatedDataset(
        tuple(shards), eval_pos_ids, eval_pos_X, eval_neg_ids, eval_neg_X
    )


def apply_heterogeneity(dataset: FederatedDataset, config: DataConfig) -> FederatedDataset:
    """Shift every training feature on client i by N(mu_i, hetero_var) noise.

    All-zero heterogeneity parameters leave the dataset untouched (exact
    identity, not just zero-mean noise). The evaluation split is never
    shifted.
    """
    if dataset.n_clients != config.n_clients:
        raise ValueError("dataset was generated with a different client count")
    if config.hetero_var == 0 and config.hetero_base == 0 and config.hetero_step == 0:
        return dataset
    std = np.sqrt(config.hetero_var)
    shards = []
    for i, shard in enumerate(dataset.shards):
        g = substream(config.seed, "hetero", i)
        mu = config.client_mean_shift(i)
        shards.append(
            ClientShard(
                shard.pos_ids,
                shard.pos_X + mu + std * g.standard_normal(shard.pos_X.shape),
                shard.neg_ids,
                shard.neg_X + mu + std * g.standard_normal(shard.neg_X.shape),
            )
        )
    return replace(dataset, shards=tuple(shards))


def flip_labels(
    dataset: FederatedDataset, flip_fraction: float, seed: int
) -> FederatedDataset:
    """Swap a random floor(fraction * count) subset of each side, per client.

    Feature vectors, ids and per-client totals are preserved exactly; only
    group membership changes. Runs before any training or history bootstrap.
    """
    if not (0.0 <= flip_fraction <= 1.0):
        raise ValueError("flip_fraction must be in [0, 1]")
    if flip_fraction == 0.0:
        return dataset
    shards = []
    for i, shard in enumerate(dataset.shards):
        g = substream(seed, "flip", i)
        k_pos = int(np.floor(flip_fraction * shard.n_pos))
        k_neg = int(np.floor(flip_fraction * shard.n_neg))
        pos_out = np.sort(g.choice(shard.n_pos, size=k_pos, replace=False))
        neg_out = np.sort(g.choice(shard.n_neg, size=k_neg, replace=False))
        pos_keep = np.setdiff1d(np.arange(shard.n_pos), pos_out)
        neg_keep = np.setdiff1d(np.arange(shard.n_neg), neg_out)
        shards.append(
            ClientShard(
                np.concatenate([shard.pos_ids[pos_keep], shard.neg_ids[neg_out]]),
                np.vstack([shard.pos_X[pos_keep], shard.neg_X[neg_out]]),
                np.concatenate([shard.neg_ids[neg_keep], shard.pos_ids[pos_out]]),
                np.vstack([shard.neg_X[neg_keep], shard.pos_X[pos_out]]),
            )
        )
    return replace(dataset, shards=tuple(shards))


def build_dataset(config: DataConfig) -> FederatedDataset:
    """generate -> apply_heterogeneity -> flip_labels, the standard pipeline."""
    ds = generate(config)
    ds = apply_heterogeneity(ds, config)
    return flip_labels(ds, config.flip_fraction, config.seed)

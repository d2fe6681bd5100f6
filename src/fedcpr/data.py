"""Synthetic two-Gaussian binary data, client partitioning, heterogeneity
injection, and label corruption.

Positives and negatives are drawn from two Gaussian clusters separated so a
linear model reaches AUC ~0.9 on clean data. The global pools are drawn as
a function of (seed, total counts) only and then partitioned contiguously
into clients, so regenerating with a different client count but the same
totals yields bitwise-identical global data, which is what makes the
fixed-total vary-N ablation well posed.

Client i's data is row i of the dataset's stacked arrays, so every client
holds as many positives and as many negatives.

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
# The distance between the two cluster means and each cluster's per-feature
# standard deviation.
CLUSTER_SEP = 1.9
CLUSTER_STD = 1.0


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
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed must be a signed 64-bit integer")

    def client_mean_shift(self, client: int) -> float:
        return self.hetero_base + client * self.hetero_step


# The stacked training fields and their dimensions, which they share.
_STACKED = {"pos_ids": ("N", "n_pos"), "pos_X": ("N", "n_pos", "d"),
            "neg_ids": ("N", "n_neg"), "neg_X": ("N", "n_neg", "d")}


@dataclass(frozen=True)
class FederatedDataset:
    """Client i's training data is row i of stacked arrays: ``pos_ids`` (N,
    n_pos) and ``pos_X`` (N, n_pos, d) for its positive side (S1), and
    ``neg_ids`` (N, n_neg) and ``neg_X`` (N, n_neg, d) for its negative side
    (S2), so every client holds as many of each side. The held-out split is
    flat: (n, d) features per side.

    Raises ValueError, its message starting with the field at fault, when
    the training fields' shapes disagree or a field's client rows differ
    in length.
    """

    pos_ids: np.ndarray
    pos_X: np.ndarray
    neg_ids: np.ndarray
    neg_X: np.ndarray
    eval_pos_X: np.ndarray
    eval_neg_X: np.ndarray

    def __post_init__(self) -> None:
        sizes: dict[str, int] = {}  # each dimension, as the first field has it
        for name, dims in _STACKED.items():
            try:
                value = np.asarray(getattr(self, name))
            except ValueError:  # client rows of unequal lengths
                raise ValueError(f"{name}: every client must hold as many rows") from None
            object.__setattr__(self, name, value)
            if value.ndim != len(dims) or any(
                    sizes.setdefault(dim, n) != n for dim, n in zip(dims, value.shape)):
                raise ValueError(f"{name}: shape {value.shape} is not ({', '.join(dims)}), "
                                 "one row per client, as the other stacked fields have it")

    @property
    def n_clients(self) -> int:
        return self.pos_ids.shape[0]

    def pos_union(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, features) of the full positive set in client order."""
        return self.pos_ids.reshape(-1), self.pos_X.reshape(-1, self.pos_X.shape[-1])

    def neg_union(self) -> tuple[np.ndarray, np.ndarray]:
        return self.neg_ids.reshape(-1), self.neg_X.reshape(-1, self.neg_X.shape[-1])


def _cluster_means(config: DataConfig) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * CLUSTER_SEP / np.sqrt(config.input_dim)
    mean = np.full(config.input_dim, half)
    return mean, -mean


def generate(config: DataConfig) -> FederatedDataset:
    """Draw the federation's data. Pure function of the config."""
    pos_mean, neg_mean = _cluster_means(config)
    total_pos = config.n_pos_per_client * config.n_clients
    total_neg = config.n_neg_per_client * config.n_clients

    def draw(tag: str, count: int, mean: np.ndarray) -> np.ndarray:
        g = substream(config.seed, "data", tag)
        return mean + CLUSTER_STD * g.standard_normal((count, config.input_dim))

    pos_X = draw("pos", total_pos, pos_mean)
    neg_X = draw("neg", total_neg, neg_mean)
    eval_pos_X = draw("eval-pos", EVAL_MULTIPLIER * total_pos, pos_mean)
    eval_neg_X = draw("eval-neg", EVAL_MULTIPLIER * total_neg, neg_mean)

    pos_ids = np.arange(total_pos, dtype=np.int64)
    neg_ids = np.arange(total_pos, total_pos + total_neg, dtype=np.int64)
    # Contiguous partition: client i holds rows i*n .. (i+1)*n - 1 of each pool.
    n, p, q = config.n_clients, config.n_pos_per_client, config.n_neg_per_client
    return FederatedDataset(
        pos_ids.reshape(n, p), pos_X.reshape(n, p, -1), neg_ids.reshape(n, q),
        neg_X.reshape(n, q, -1), eval_pos_X, eval_neg_X,
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
    pos_X, neg_X = np.empty_like(dataset.pos_X), np.empty_like(dataset.neg_X)
    for i in range(dataset.n_clients):
        g = substream(config.seed, "hetero", i)
        mu = config.client_mean_shift(i)
        pos_X[i] = dataset.pos_X[i] + mu + std * g.standard_normal(pos_X[i].shape)
        neg_X[i] = dataset.neg_X[i] + mu + std * g.standard_normal(neg_X[i].shape)
    return replace(dataset, pos_X=pos_X, neg_X=neg_X)


def flip_labels(
    dataset: FederatedDataset, flip_fraction: float, seed: int
) -> FederatedDataset:
    """Swap a random floor(fraction * count) subset of each side, per client.

    Feature vectors, ids and per-client totals are preserved exactly; only
    the side a sample is on changes. Runs before any training or history
    bootstrap. Every client moves as many of each side, so the rows stay
    equal.
    """
    if not (0.0 <= flip_fraction <= 1.0):
        raise ValueError("flip_fraction must be in [0, 1]")
    if flip_fraction == 0.0:
        return dataset
    n_pos, n_neg = dataset.pos_ids.shape[1], dataset.neg_ids.shape[1]
    k_pos, k_neg = int(np.floor(flip_fraction * n_pos)), int(np.floor(flip_fraction * n_neg))
    # Positions in each client's row of both sides, positives first.
    ids = np.concatenate([dataset.pos_ids, dataset.neg_ids], axis=1)
    X = np.concatenate([dataset.pos_X, dataset.neg_X], axis=1)
    to_pos, to_neg = [], []
    for i in range(dataset.n_clients):
        g = substream(seed, "flip", i)
        pos_out = np.sort(g.choice(n_pos, size=k_pos, replace=False))
        neg_out = n_pos + np.sort(g.choice(n_neg, size=k_neg, replace=False))
        to_pos.append(np.concatenate([np.setdiff1d(np.arange(n_pos), pos_out), neg_out]))
        to_neg.append(np.concatenate([np.setdiff1d(np.arange(n_pos, n_pos + n_neg), neg_out),
                                      pos_out]))
    rows = np.arange(dataset.n_clients)[:, None]
    to_pos, to_neg = np.array(to_pos), np.array(to_neg)
    return replace(dataset, pos_ids=ids[rows, to_pos], pos_X=X[rows, to_pos],
                   neg_ids=ids[rows, to_neg], neg_X=X[rows, to_neg])


def build_dataset(config: DataConfig) -> FederatedDataset:
    """generate -> apply_heterogeneity -> flip_labels, the standard pipeline."""
    ds = generate(config)
    ds = apply_heterogeneity(ds, config)
    return flip_labels(ds, config.flip_fraction, config.seed)

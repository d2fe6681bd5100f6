"""Federated optimizers for compositional pairwise risks, their baselines,
and theory-driven hyperparameter schedules.

Two federated algorithms share one round structure (bootstrap exchange,
then R rounds of K local steps between exchanges):

* ``fedx1`` (linear outer function): each local step combines *active*
  factors (fresh scores and score gradients of locally sampled data at the
  current local model) with *lazy* factors (score records produced on all
  machines during the previous round, delivered via the server and drawn
  from a shuffled buffer without replacement).
* ``fedx2`` (nonlinear outer function): adds a per-positive-sample moving
  average ``u`` tracking the inner pairwise mean, a second lazy channel
  carrying u-records (read at the same buffer positions as the
  positive-side score records, so each drawn pair shares provenance), and
  a momentum average of the gradient estimates; model and momentum are
  both averaged by the server.

Baselines: ``local_sgd`` (per-sample logistic loss, model averaging),
``local_pair`` (the same update rules with lazy factors replaced by fresh
local partner scores, no history exchange), and ``centralized`` (one worker
on the union dataset; all pairs of the two minibatches, with the
moving-average machinery when the outer function is nonlinear).

All five run through :func:`simulate`; each is one ``_Program`` in
:data:`PROGRAMS`, plugged into the shared round engine.

Every random draw comes from a named substream keyed by
(seed, purpose, client, round, iteration), so any run is a pure function of
(config, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .data import ClientShard, FederatedDataset
from .federation import (
    Buffer,
    InProcessTransport,
    Records,
    RoundDownload,
    RoundUpload,
    comm_cost,
    run_round,
)
from .losses import (
    OuterFnSpec,
    PairwiseLossSpec,
    exact_oracle,
    loss,
    loss_grads,
    outer_deriv,
)
from .metrics import ScoredEval, auc_and_partial_aucs
from .model import ScorerSpec, init_params, score_grad_many, score_many
from .rng import substream

DEFAULT_PAUC_FPRS = (0.3, 0.5)


@dataclass(frozen=True)
class HyperParams:
    eta: float = 0.1
    K: int = 32
    R: int = 30
    B1: int = 32
    B2: int = 32
    gamma: float = 0.1
    beta: float = 0.1
    lr_decay_every: int | None = None
    lr_decay_factor: float = 0.1
    seed: int = 0
    history_samples: str = "independent"  # or "reuse": history/u emission batches

    def __post_init__(self) -> None:
        # Each message starts with the field's config key name.
        # eta = 0 is legal: frozen-model protocols rely on it.
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.lr_decay_factor <= 0:
            raise ValueError("lr_decay_factor must be positive")
        for name in ("K", "R", "B1", "B2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("gamma", "beta"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0, 1]")
        if self.lr_decay_every is not None and self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1 or none")
        if self.history_samples not in ("independent", "reuse"):
            raise ValueError(
                f"history_samples must be independent or reuse, got {self.history_samples!r}"
            )

    def eta_at(self, local_iter: int) -> float:
        """Step size in effect at a client's lifetime local iteration."""
        if self.lr_decay_every is None:
            return self.eta
        return self.eta * self.lr_decay_factor ** (local_iter // self.lr_decay_every)


def _ceil(x: float) -> int:
    # Guard against float fuzz: values within 1e-9 of an integer round to it.
    return int(math.ceil(x - 1e-9))


def theory_schedule(
    kind: str,
    target_eps: float,
    n_clients: int,
    max_shard: int = 1,
    scale: float = 1.0,
) -> HyperParams:
    """Hyperparameters from the convergence-guarantee schedules.

    ``fedx1``: R = ceil(scale/eps^3), eta = scale*N*eps^2,
    K = max(1, ceil(1/(N*eps))).
    ``fedx2`` (M = largest positive shard): R = ceil(scale*sqrt(M)/eps^3),
    eta = scale*eps^2/M, gamma = scale*eps^2, beta = scale*eps^2/sqrt(M),
    K = max(1, ceil(sqrt(M)/eps)); gamma and beta clamped to (0, 1].
    """
    if not (0.0 < target_eps < 1.0):
        raise ValueError("target_eps must be in (0, 1)")
    if scale <= 0:
        raise ValueError("scale must be positive")
    eps = target_eps
    if kind == "fedx1":
        return HyperParams(
            eta=scale * n_clients * eps**2,
            K=max(1, _ceil(1.0 / (n_clients * eps))),
            R=max(1, _ceil(scale / eps**3)),
        )
    if kind == "fedx2":
        m = max_shard
        root_m = math.sqrt(m)
        return HyperParams(
            eta=scale * eps**2 / m,
            K=max(1, _ceil(root_m / eps)),
            R=max(1, _ceil(scale * root_m / eps**3)),
            gamma=min(1.0, scale * eps**2),
            beta=min(1.0, scale * eps**2 / root_m),
        )
    raise ValueError(f"unknown schedule kind: {kind!r}")


def momentum_update(momentum: np.ndarray, estimate: np.ndarray, beta: float) -> np.ndarray:
    """(1 - beta) * momentum + beta * estimate."""
    return (1.0 - beta) * momentum + beta * estimate


class UTable:
    """Per-positive-sample moving-average estimates of the inner pairwise
    mean, indexed by the sample's position in its shard. Entries start at 0
    and only change through :meth:`track`; ``touched`` marks the entries
    that ever did."""

    def __init__(self, n_pos: int) -> None:
        self.values = np.zeros(n_pos)
        self.touched = np.zeros(n_pos, dtype=bool)

    def __len__(self) -> int:
        return len(self.values)

    def track(self, positions: np.ndarray, inner: np.ndarray, gamma: float) -> None:
        """Moving-average update of the tracked inner means (the tracker of
        SOX, Wang & Yang, ICML 2022):
        new = (1 - gamma) * old + gamma * inner at each position, reading
        the pre-update values. Positions come from a without-replacement
        batch, so none repeats."""
        self.values[positions] = (1.0 - gamma) * self.values[positions] + gamma * inner
        self.touched[positions] = True

    def emission(self, positions: np.ndarray, fallback: np.ndarray) -> np.ndarray:
        """Stored values where the entry was ever updated, else ``fallback``.

        Never-updated entries hold the initial 0, which would blow up the
        clamped outer derivative downstream; the fallback is the same
        full-replacement estimate the round-0 bootstrap uses.
        """
        return np.where(self.touched[positions], self.values[positions], fallback)


@dataclass(frozen=True)
class RunSettings:
    algorithm: str
    scorer: ScorerSpec
    loss: PairwiseLossSpec
    outer: OuterFnSpec
    hyper: HyperParams

    @property
    def seed(self) -> int:
        return self.hyper.seed


@dataclass
class ClientState:
    """One client's exclusively-owned mutable state."""

    index: int
    shard: ClientShard
    settings: RunSettings
    model: np.ndarray
    momentum: np.ndarray | None = None
    u_table: UTable | None = None
    pos_buffer: Buffer | None = None  # positions into the received positive-side scores
    neg_buffer: Buffer | None = None
    paired_u: Records | None = None  # received u-records, row-aligned with pos_buffer.block
    out_h1: list[Records] = field(default_factory=list)  # one block per emission
    out_h2: list[Records] = field(default_factory=list)
    out_u: list[Records] = field(default_factory=list)
    local_iters: int = 0


@dataclass
class RoundRecord:
    round: int
    wall_seconds: float
    objective: float | None
    grad_norm_sq: float | None
    auc: float | None
    pauc: dict[float, float] | None
    uplink_floats: int
    downlink_floats: int
    buffer_wraps: int


@dataclass
class IterationRecord:
    client: int
    round: int
    iteration: int
    loss_estimate: float
    step_size: float


@dataclass
class RunTrace:
    settings: RunSettings
    rounds: list[RoundRecord] = field(default_factory=list)
    iterations: list[IterationRecord] = field(default_factory=list)
    final_model: np.ndarray | None = None

    def final_round(self) -> RoundRecord:
        return self.rounds[-1]


def _draw_batch(rng: np.random.Generator, n: int, batch: int) -> np.ndarray:
    """Indices of a without-replacement minibatch of size min(batch, n)."""
    return rng.choice(n, size=min(batch, n), replace=False)


def fedx1_estimate(
    state: ClientState,
    iteration: int,
    z1_idx: np.ndarray,
    z2_idx: np.ndarray,
    lazy_neg: np.ndarray,
    lazy_pos: np.ndarray,
) -> np.ndarray:
    """Linear-outer gradient estimate from one pair of minibatches.

    Active factors (scores and score gradients of the sampled local data at
    the current local model) pair elementwise with the lazy score values;
    the fresh scores are appended to the outgoing histories with provenance
    (client, iteration, sample id).
    """
    if len(z1_idx) != len(lazy_neg) or len(z2_idx) != len(lazy_pos):
        raise ValueError("each active sample needs exactly one lazy record")
    s = state.settings
    shard = state.shard
    x1, x2 = shard.pos_X[z1_idx], shard.neg_X[z2_idx]
    a = score_many(s.scorer, state.model, x1)
    b = score_many(s.scorer, state.model, x2)
    d1, _ = loss_grads(s.loss, a, lazy_neg)
    _, d2 = loss_grads(s.loss, lazy_pos, b)
    j1 = score_grad_many(s.scorer, state.model, x1)
    j2 = score_grad_many(s.scorer, state.model, x2)
    g = (np.asarray(d1) @ j1) / len(z1_idx) + (np.asarray(d2) @ j2) / len(z2_idx)
    state.out_h1.append(Records.of(a, state.index, iteration, shard.pos_ids[z1_idx]))
    state.out_h2.append(Records.of(b, state.index, iteration, shard.neg_ids[z2_idx]))
    return g


def fedx2_estimate(
    state: ClientState,
    z1_idx: np.ndarray,
    z2_idx: np.ndarray,
    lazy_neg: np.ndarray,
    lazy_pos: np.ndarray,
    lazy_u: np.ndarray,
) -> np.ndarray:
    """Nonlinear-outer gradient estimate.

    The positive-sample term weights each pair by the outer derivative at
    the just-updated tracked inner mean of that sample; the negative-sample
    term weights by the outer derivative at the lazy u-value paired (same
    provenance) with the lazy positive score. Pure: histories are not
    touched here.
    """
    if len(z1_idx) != len(lazy_neg):
        raise ValueError("each positive sample needs exactly one lazy negative score")
    if len(z2_idx) != len(lazy_pos) or len(z2_idx) != len(lazy_u):
        raise ValueError("each negative sample needs one lazy (score, u) pair")
    s = state.settings
    shard = state.shard
    x1, x2 = shard.pos_X[z1_idx], shard.neg_X[z2_idx]
    a = score_many(s.scorer, state.model, x1)
    b = score_many(s.scorer, state.model, x2)
    d1, _ = loss_grads(s.loss, a, lazy_neg)
    _, d2 = loss_grads(s.loss, lazy_pos, b)
    w1 = np.asarray(outer_deriv(s.outer, state.u_table.values[z1_idx])) * np.asarray(d1)
    w2 = np.asarray(outer_deriv(s.outer, lazy_u)) * np.asarray(d2)
    j1 = score_grad_many(s.scorer, state.model, x1)
    j2 = score_grad_many(s.scorer, state.model, x2)
    return (w1 @ j1) / len(z1_idx) + (w2 @ j2) / len(z2_idx)


class _Program:
    """Per-algorithm client behavior plugged into the shared round engine."""

    uses_momentum = False
    uses_u = False
    shares_histories = False

    def __init__(self, settings: RunSettings) -> None:
        self.settings = settings

    def init_states(self, dataset: FederatedDataset) -> list[ClientState]:
        s = self.settings
        w0 = init_params(s.scorer, substream(s.seed, "init"))
        states = []
        for i, shard in enumerate(dataset.shards):
            st = ClientState(index=i, shard=shard, settings=s, model=w0.copy())
            if self.uses_momentum:
                st.momentum = np.zeros_like(w0)
            if self.uses_u:
                st.u_table = UTable(shard.n_pos)
            if self.shares_histories:
                st.pos_buffer = Buffer()
                st.neg_buffer = Buffer()
            states.append(st)
        return states

    def _bootstrap_batches(self, st: ClientState):
        """K per-iteration batches per side, scored at the initial model."""
        s = self.settings
        for k in range(s.hyper.K):
            g = substream(s.seed, "bootstrap", st.index, k)
            z1 = _draw_batch(g, st.shard.n_pos, s.hyper.B1)
            z2 = _draw_batch(g, st.shard.n_neg, s.hyper.B2)
            a = score_many(s.scorer, st.model, st.shard.pos_X[z1])
            b = score_many(s.scorer, st.model, st.shard.neg_X[z2])
            yield k, z1, a, z2, b

    def bootstrap_upload(self, st: ClientState) -> RoundUpload:
        if self.shares_histories:
            for k, z1, a, z2, b in self._bootstrap_batches(st):
                ids1 = st.shard.pos_ids[z1]
                st.out_h1.append(Records.of(a, st.index, k, ids1))
                st.out_h2.append(Records.of(b, st.index, k, st.shard.neg_ids[z2]))
                if self.uses_u:
                    # Full-replacement estimates so the first cross-client
                    # u-draws are well away from the outer-derivative clamp.
                    partner = b[np.arange(len(a)) % len(b)]
                    inner = loss(self.settings.loss, a, partner)
                    st.out_u.append(Records.of(inner, st.index, k, ids1))
        return self._upload(st)

    def _upload(self, st: ClientState) -> RoundUpload:
        up = RoundUpload(
            client=st.index,
            model=st.model.copy(),
            h1=Records.concat(st.out_h1),
            h2=Records.concat(st.out_h2),
            momentum=st.momentum.copy() if self.uses_momentum else None,
            u=Records.concat(st.out_u) if self.uses_u else None,
        )
        st.out_h1.clear()
        st.out_h2.clear()
        st.out_u.clear()
        return up

    def begin_round(self, st: ClientState, download: RoundDownload, round_idx: int) -> None:
        st.model = download.model.copy()
        if self.uses_momentum and download.momentum is not None:
            st.momentum = download.momentum.copy()
        if self.shares_histories:
            s = self.settings
            if self.uses_u:
                # One buffer of positions serves both blocks, so every drawn
                # (score, u) pair shares provenance.
                if len(download.r1) != len(download.p or ()):
                    raise ValueError("positive-side scores and u-records must align")
                st.paired_u = download.p
            st.pos_buffer.refill(
                download.r1, substream(s.seed, "buffer-pos", st.index, round_idx)
            )
            st.neg_buffer.refill(
                download.r2, substream(s.seed, "buffer-neg", st.index, round_idx)
            )

    def local_step(self, st: ClientState, round_idx: int, k: int, eta: float) -> float:
        raise NotImplementedError

    def build_upload(self, st: ClientState, round_idx: int) -> RoundUpload:
        return self._upload(st)


class FedX1Program(_Program):
    shares_histories = True

    def local_step(self, st: ClientState, round_idx: int, k: int, eta: float) -> float:
        s = self.settings
        g = substream(s.seed, "step", st.index, round_idx, k)
        z1 = _draw_batch(g, st.shard.n_pos, s.hyper.B1)
        z2 = _draw_batch(g, st.shard.n_neg, s.hyper.B2)
        lazy_neg = st.neg_buffer.block.value[st.neg_buffer.draw(len(z1))]
        lazy_pos = st.pos_buffer.block.value[st.pos_buffer.draw(len(z2))]
        grad = fedx1_estimate(st, k, z1, z2, lazy_neg, lazy_pos)
        # Loss estimate pairs the fresh positive scores with their lazy partners.
        est = float(np.mean(loss(s.loss, st.out_h1[-1].value, lazy_neg)))
        st.model = st.model - eta * grad
        return est


class FedX2Program(_Program):
    uses_momentum = True
    uses_u = True
    shares_histories = True

    def local_step(self, st: ClientState, round_idx: int, k: int, eta: float) -> float:
        s = self.settings
        g = substream(s.seed, "step", st.index, round_idx, k)
        z1 = _draw_batch(g, st.shard.n_pos, s.hyper.B1)
        z2 = _draw_batch(g, st.shard.n_neg, s.hyper.B2)
        lazy_neg = st.neg_buffer.block.value[st.neg_buffer.draw(len(z1))]
        paired = st.pos_buffer.draw(len(z2))
        lazy_pos = st.pos_buffer.block.value[paired]
        lazy_u = st.paired_u.value[paired]

        a = score_many(s.scorer, st.model, st.shard.pos_X[z1])
        pair_loss = loss(s.loss, a, lazy_neg)
        st.u_table.track(z1, pair_loss, s.hyper.gamma)
        grad = fedx2_estimate(st, z1, z2, lazy_neg, lazy_pos, lazy_u)

        if s.hyper.history_samples == "independent":
            zh1 = _draw_batch(g, st.shard.n_pos, s.hyper.B1)
            zh2 = _draw_batch(g, st.shard.n_neg, s.hyper.B2)
            ah = score_many(s.scorer, st.model, st.shard.pos_X[zh1])
            bh = score_many(s.scorer, st.model, st.shard.neg_X[zh2])
        else:
            zh1, zh2 = z1, z2
            ah = a
            bh = score_many(s.scorer, st.model, st.shard.neg_X[zh2])
        ids1 = st.shard.pos_ids[zh1]
        st.out_h1.append(Records.of(ah, st.index, k, ids1))
        st.out_h2.append(Records.of(bh, st.index, k, st.shard.neg_ids[zh2]))
        # zh1 and z1 have the same size, so lazy_neg gives one partner each.
        u_emit = st.u_table.emission(zh1, loss(s.loss, ah, lazy_neg))
        st.out_u.append(Records.of(u_emit, st.index, k, ids1))

        st.momentum = momentum_update(st.momentum, grad, s.hyper.beta)
        st.model = st.model - eta * st.momentum
        return float(np.mean(pair_loss))


class LocalSGDProgram(_Program):
    """Per-sample logistic loss on local data, model averaging each round.
    The configured pairwise loss and outer function are used only for
    objective reporting."""

    def init_states(self, dataset: FederatedDataset) -> list[ClientState]:
        states = super().init_states(dataset)
        self._union_X = [
            np.vstack([st.shard.pos_X, st.shard.neg_X]) for st in states
        ]
        self._union_y = [
            np.concatenate([np.ones(st.shard.n_pos), -np.ones(st.shard.n_neg)])
            for st in states
        ]
        return states

    def local_step(self, st: ClientState, round_idx: int, k: int, eta: float) -> float:
        s = self.settings
        g = substream(s.seed, "step", st.index, round_idx, k)
        X, y = self._union_X[st.index], self._union_y[st.index]
        idx = _draw_batch(g, X.shape[0], s.hyper.B1 + s.hyper.B2)
        xb, yb = X[idx], y[idx]
        scores = score_many(s.scorer, st.model, xb)
        coeff = -yb * expit(-yb * scores)
        grad = coeff @ score_grad_many(s.scorer, st.model, xb) / len(idx)
        st.model = st.model - eta * grad
        return float(np.mean(np.logaddexp(0.0, -yb * scores)))


class LocalPairProgram(_Program):
    """Pairwise updates on local pairs only: the lazy slots are filled with
    fresh local scores of the opposite-side batch (m-th with m-th, cycling
    when the batch sizes differ). Nonlinear outer adds the local
    moving-average tracker and averaged momentum."""

    def __init__(self, settings: RunSettings) -> None:
        super().__init__(settings)
        self.nonlinear = settings.outer.kind != "identity"
        self.uses_momentum = self.nonlinear
        self.uses_u = self.nonlinear

    def bootstrap_upload(self, st: ClientState) -> RoundUpload:
        return self._upload(st)  # model (and zero momentum) only

    def local_step(self, st: ClientState, round_idx: int, k: int, eta: float) -> float:
        s = self.settings
        g = substream(s.seed, "step", st.index, round_idx, k)
        z1 = _draw_batch(g, st.shard.n_pos, s.hyper.B1)
        z2 = _draw_batch(g, st.shard.n_neg, s.hyper.B2)
        x1, x2 = st.shard.pos_X[z1], st.shard.neg_X[z2]
        a = score_many(s.scorer, st.model, x1)
        b = score_many(s.scorer, st.model, x2)
        n1, n2 = len(z1), len(z2)
        part_b = b[np.arange(n1) % n2]  # partner for each positive
        part_a = a[np.arange(n2) % n1]  # partner for each negative
        pair_loss = loss(s.loss, a, part_b)
        d1, _ = loss_grads(s.loss, a, part_b)
        _, d2 = loss_grads(s.loss, part_a, b)
        j1 = score_grad_many(s.scorer, st.model, x1)
        j2 = score_grad_many(s.scorer, st.model, x2)
        if self.nonlinear:
            st.u_table.track(z1, pair_loss, s.hyper.gamma)
            u1 = st.u_table.values[z1]
            w1 = np.asarray(outer_deriv(s.outer, u1)) * np.asarray(d1)
            u2 = u1[np.arange(n2) % n1]
            w2 = np.asarray(outer_deriv(s.outer, u2)) * np.asarray(d2)
            grad = (w1 @ j1) / n1 + (w2 @ j2) / n2
            st.momentum = momentum_update(st.momentum, grad, s.hyper.beta)
            st.model = st.model - eta * st.momentum
        else:
            grad = (np.asarray(d1) @ j1) / n1 + (np.asarray(d2) @ j2) / n2
            st.model = st.model - eta * grad
        return float(np.mean(pair_loss))


def _union_dataset(dataset: FederatedDataset) -> FederatedDataset:
    pos_ids, pos_X = dataset.pos_union()
    neg_ids, neg_X = dataset.neg_union()
    return replace(dataset, shards=(ClientShard(pos_ids, pos_X, neg_ids, neg_X),))


class CentralizedProgram(_Program):
    """Single worker over the union dataset; every pair of the two
    minibatches contributes. Nonlinear outer is the moving-average tracker
    algorithm with fresh same-iteration negative scores and momentum."""

    def __init__(self, settings: RunSettings) -> None:
        super().__init__(settings)
        self.nonlinear = settings.outer.kind != "identity"
        self.uses_momentum = self.nonlinear
        self.uses_u = self.nonlinear

    def init_states(self, dataset: FederatedDataset) -> list[ClientState]:
        return super().init_states(_union_dataset(dataset))

    def local_step(self, st: ClientState, round_idx: int, k: int, eta: float) -> float:
        s = self.settings
        g = substream(s.seed, "step", st.index, round_idx, k)
        z1 = _draw_batch(g, st.shard.n_pos, s.hyper.B1)
        z2 = _draw_batch(g, st.shard.n_neg, s.hyper.B2)
        x1, x2 = st.shard.pos_X[z1], st.shard.neg_X[z2]
        a = score_many(s.scorer, st.model, x1)
        b = score_many(s.scorer, st.model, x2)
        n1, n2 = len(z1), len(z2)
        d1, d2 = loss_grads(s.loss, a[:, None], b[None, :])  # (n1, n2)
        j1 = score_grad_many(s.scorer, st.model, x1)
        j2 = score_grad_many(s.scorer, st.model, x2)
        if self.nonlinear:
            lmat = loss(s.loss, a[:, None], b[None, :])
            st.u_table.track(z1, lmat.mean(axis=1), s.hyper.gamma)
            fpu = np.asarray(outer_deriv(s.outer, st.u_table.values[z1]))
            grad = ((fpu * d1.sum(axis=1)) @ j1 + (fpu @ d2) @ j2) / (n1 * n2)
            st.momentum = momentum_update(st.momentum, grad, s.hyper.beta)
            st.model = st.model - eta * st.momentum
            return float(lmat.mean())
        grad = (d1.sum(axis=1) @ j1 + d2.sum(axis=0) @ j2) / (n1 * n2)
        st.model = st.model - eta * grad
        return float(np.mean(loss(s.loss, a[:, None], b[None, :])))


PROGRAMS = {
    "fedx1": FedX1Program,
    "fedx2": FedX2Program,
    "local_sgd": LocalSGDProgram,
    "local_pair": LocalPairProgram,
    "centralized": CentralizedProgram,
}
ALGORITHMS = tuple(PROGRAMS)
# fedx1's estimator is the linear-outer one and fedx2's the nonlinear one;
# the baselines take either outer function and branch on it.
REQUIRED_OUTER = {"fedx1": "identity", "fedx2": "kl_log"}


def check_algorithm(algorithm: str, outer: OuterFnSpec) -> None:
    """Raise ValueError, its message starting with the config key at fault,
    unless ``algorithm`` is known and runs with ``outer``."""
    if algorithm not in PROGRAMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    required = REQUIRED_OUTER.get(algorithm, outer.kind)
    if outer.kind != required:
        raise ValueError(f"outer.kind must be {required} for {algorithm}, got {outer.kind!r}")


class _Evaluator:
    """Exact-oracle and held-out-metric snapshots of a global model."""

    def __init__(self, dataset: FederatedDataset, settings: RunSettings, pauc_fprs):
        self.settings = settings
        self.pauc_fprs = tuple(pauc_fprs)
        _, self.pos_X = dataset.pos_union()
        _, self.neg_X = dataset.neg_union()
        self.eval_pos_X = dataset.eval_pos_X
        self.eval_neg_X = dataset.eval_neg_X

    def oracle(self, w: np.ndarray, round_idx: int) -> tuple[float, float]:
        """(objective, grad_norm_sq); raises rather than return inf or NaN."""
        s = self.settings
        obj, grad = exact_oracle(s.loss, s.outer, s.scorer, w, self.pos_X, self.neg_X)
        grad_sq = float(np.dot(grad, grad))
        for name, value in (("objective", obj), ("grad_norm_sq", grad_sq)):
            if not math.isfinite(value):
                raise FloatingPointError(
                    f"exact {name} is non-finite ({value}) at round {round_idx}"
                )
        return obj, grad_sq

    def held_out(self, w: np.ndarray) -> tuple[float, dict[float, float]]:
        s = self.settings
        ev = ScoredEval(
            score_many(s.scorer, w, self.eval_pos_X),
            score_many(s.scorer, w, self.eval_neg_X),
        )
        return auc_and_partial_aucs(ev, self.pauc_fprs)


def _due(round_idx: int, last_round: int, every: int) -> bool:
    if round_idx in (0, last_round):
        return True
    return every > 0 and round_idx % every == 0


def simulate(
    algorithm: str,
    dataset: FederatedDataset,
    scorer: ScorerSpec,
    loss_spec: PairwiseLossSpec,
    outer: OuterFnSpec,
    hyper: HyperParams,
    *,
    trace_sink=None,
    eval_every: int = 1,
    oracle_every: int = 1,
    iteration_trace: bool = False,
    pauc_fprs=DEFAULT_PAUC_FPRS,
) -> RunTrace:
    """Run one of :data:`ALGORITHMS`: the bootstrap exchange, then ``hyper.R``
    rounds of ``hyper.K`` local steps per client.

    ``trace_sink`` (``on_round``/``on_iteration``) sees each record as it is
    made. The exact oracle and the held-out metrics are taken at rounds 0
    and R and every ``oracle_every``/``eval_every`` rounds (0 = never
    between). Raises ValueError for an unknown algorithm or one that does
    not run with ``outer`` (see :data:`REQUIRED_OUTER`), and
    FloatingPointError at the first non-finite model or oracle value.
    """
    check_algorithm(algorithm, outer)
    settings = RunSettings(algorithm, scorer, loss_spec, outer, hyper)
    program = PROGRAMS[algorithm](settings)
    states = program.init_states(dataset)
    transport = InProcessTransport(len(states))
    evaluator = _Evaluator(dataset, settings, pauc_fprs)
    trace = RunTrace(settings=settings)

    def emit_round(idx, t_start, download, uploads, wraps):
        up_floats, down_floats = comm_cost(uploads[0], download)
        objective = grad_sq = auc_val = pauc_val = None
        if _due(idx, hyper.R, oracle_every):
            objective, grad_sq = evaluator.oracle(download.model, idx)
        if _due(idx, hyper.R, eval_every):
            auc_val, pauc_val = evaluator.held_out(download.model)
        rec = RoundRecord(
            round=idx,
            wall_seconds=time.perf_counter() - t_start,
            objective=objective,
            grad_norm_sq=grad_sq,
            auc=auc_val,
            pauc=pauc_val,
            uplink_floats=up_floats,
            downlink_floats=down_floats,
            buffer_wraps=wraps,
        )
        trace.rounds.append(rec)
        if trace_sink is not None:
            trace_sink.on_round(rec)

    def total_wraps() -> int:
        return sum(
            buf.wraps
            for st in states
            for buf in (st.pos_buffer, st.neg_buffer)
            if buf is not None
        )

    t_start = time.perf_counter()
    download, uploads = run_round(
        states, lambda st, dl: program.bootstrap_upload(st), None, transport
    )
    emit_round(0, t_start, download, uploads, 0)

    for r in range(1, hyper.R + 1):
        t_start = time.perf_counter()
        wraps_before = total_wraps()
        iter_records: dict[int, list[IterationRecord]] = {}

        def client_round(st: ClientState, dl: RoundDownload) -> RoundUpload:
            program.begin_round(st, dl, r)
            recs = []
            for k in range(hyper.K):
                eta_k = hyper.eta_at(st.local_iters)
                est = program.local_step(st, r, k, eta_k)
                if not np.all(np.isfinite(st.model)):
                    raise FloatingPointError(
                        f"model diverged (non-finite entries) on client {st.index} "
                        f"at round {r}, iteration {k}"
                    )
                st.local_iters += 1
                if iteration_trace:
                    recs.append(IterationRecord(st.index, r, k, est, eta_k))
            iter_records[st.index] = recs
            return program.build_upload(st, r)

        download, uploads = run_round(states, client_round, download, transport)
        if iteration_trace:
            for i in sorted(iter_records):
                trace.iterations.extend(iter_records[i])
                if trace_sink is not None:
                    for rec in iter_records[i]:
                        trace_sink.on_iteration(rec)
        emit_round(r, t_start, download, uploads, total_wraps() - wraps_before)

    trace.final_model = download.model.copy()
    return trace

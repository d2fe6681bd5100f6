"""Reference implementations the tests check the package against.

* Scalar scoring (``score``, ``score_grad``) and one inner mean
  (``exact_inner``, ``exact_inner_all``), written per sample.
* ``Shard``, ``client_shard``: one client's data, the per-client view the
  reference round reads; ``small_dataset``: a dataset built directly from
  its stacked arrays and a held-out split of any size.
* ``auc_bruteforce``, ``partial_auc_bruteforce``: the O(P·Q) pairwise
  definitions that the sorted routes of :mod:`fedcpr.metrics` must equal.
* ``Buffer``: a stateful shuffled queue of positions into a received
  block, drawn step by step; :func:`fedcpr.rng.buffer_positions` must
  give the same positions and wraps in one call.
* The per-client round: each client keeps its own state and its own view
  of its row of the dataset, and takes its K local steps one after
  another, keeping each step's emitted scores, u-values and sample ids,
  and building its own :class:`ClientUpload`, as the simulator did before
  the stacked round engine. :func:`stack_uploads` makes the round's upload
  table and emitted ids of them; :func:`reference_rounds` runs it; the
  engine must match it bit for bit, and :func:`emitted_ids` gives the
  engine's ids to compare.
* ``one_client_fedx1``/``one_client_fedx2``: the package's stacked
  estimator called on one client's state, a stack of N = 1, without and
  with tracked means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedcpr import algorithms
from fedcpr.algorithms import HyperParams, RunSettings, UTable, momentum_update
from fedcpr.data import FederatedDataset
from fedcpr.federation import ProtocolError, RoundDownload, RoundUpload, server_aggregate
from fedcpr.losses import PairwiseLossSpec, expit, loss, loss_and_slope, outer_deriv
from fedcpr.model import ScorerSpec, initial_model, score_grad_many, score_many
from fedcpr.rng import substream


# ------------------------------------------------------------ scalar scoring

def _check_dims(spec: ScorerSpec, w: np.ndarray, x: np.ndarray) -> None:
    if w.shape != (spec.param_count,):
        raise ValueError(f"parameter vector has length {w.shape}")
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"feature vector has length {x.shape[-1]}")


def score(spec: ScorerSpec, w: np.ndarray, x: np.ndarray) -> float:
    """Scalar prediction score for one sample."""
    _check_dims(spec, w, x)
    if spec.kind == "linear":
        return float(np.dot(w, x))
    h, d = spec.hidden_dim, spec.input_dim
    hidden_w, out_w = w[: h * d].reshape(h, d), w[h * d :]
    return float(np.dot(out_w, np.tanh(hidden_w @ x)))


def score_grad(spec: ScorerSpec, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of score with respect to w, length param_count."""
    _check_dims(spec, w, x)
    if spec.kind == "linear":
        return np.array(x, dtype=float, copy=True)
    h, d = spec.hidden_dim, spec.input_dim
    hidden_w, out_w = w[: h * d].reshape(h, d), w[h * d :]
    t = np.tanh(hidden_w @ x)
    # d/dW_hidden = outer(out_w * (1 - t^2), x); d/dw_out = t
    hidden_grad = np.outer(out_w * (1.0 - t * t), x)
    return np.concatenate([hidden_grad.ravel(), t])


def exact_inner(
    loss_spec: PairwiseLossSpec,
    scorer: ScorerSpec,
    w: np.ndarray,
    x: np.ndarray,
    neg_X: np.ndarray,
) -> float:
    """Mean loss of one positive sample x against every negative row."""
    if neg_X.shape[0] == 0:
        raise ValueError("negative set must be nonempty")
    a = score_many(scorer, w, x[None, :])[0]
    b = score_many(scorer, w, neg_X)
    return float(np.mean(loss(loss_spec, a, b)))


def exact_inner_all(
    loss_spec: PairwiseLossSpec,
    scorer: ScorerSpec,
    w: np.ndarray,
    pos_X: np.ndarray,
    neg_X: np.ndarray,
) -> np.ndarray:
    """exact_inner for every positive row at once, shape (|S1|,)."""
    if pos_X.shape[0] == 0 or neg_X.shape[0] == 0:
        raise ValueError("positive and negative sets must both be nonempty")
    a, b = score_many(scorer, w, pos_X), score_many(scorer, w, neg_X)
    return loss(loss_spec, a[:, None], b[None, :]).mean(axis=1)


@dataclass(frozen=True)
class Shard:
    """One client's data: positive side (S1) and negative side (S2)."""

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


def client_shard(dataset: FederatedDataset, i: int) -> Shard:
    """Client i's data, row i of the dataset's stacked arrays."""
    return Shard(dataset.pos_ids[i], dataset.pos_X[i], dataset.neg_ids[i], dataset.neg_X[i])


def small_dataset(n_clients: int, n_pos: int, n_neg: int, held_out, seed: int) -> FederatedDataset:
    """``n_clients`` clients of ``n_pos`` positives and ``n_neg`` negatives
    and a held-out split of ``held_out`` (positives, negatives). Rows are
    drawn client by client, positives before negatives, then the held-out
    split, as 4 standard normal features shifted by +0.7 on positives and
    -0.7 on negatives; ids number the training rows in that order."""
    rng, start = np.random.default_rng(seed), 0

    def rows(count: int, shift: float) -> tuple[np.ndarray, np.ndarray]:
        nonlocal start
        start += count
        return (np.arange(start - count, start, dtype=np.int64),
                rng.standard_normal((count, 4)) + shift)

    clients = [(*rows(n_pos, 0.7), *rows(n_neg, -0.7)) for _ in range(n_clients)]
    return FederatedDataset(*(np.stack(column) for column in zip(*clients)),
                            rows(held_out[0], 0.7)[1], rows(held_out[1], -0.7)[1])


# ------------------------------------------------------------ pairwise metrics

def auc_bruteforce(pos, neg) -> float:
    """Literal pairwise definition of AUC, ties counting 0.5."""
    pos, neg = np.asarray(pos, dtype=float), np.asarray(neg, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sides must be nonempty")
    wins = 0.0
    for s in pos:
        for t in neg:
            if s > t:
                wins += 1.0
            elif s == t:
                wins += 0.5
    return wins / (pos.size * neg.size)


def _hardest_negatives(neg_scores: np.ndarray, fpr_max: float) -> np.ndarray:
    """The floor(fpr_max * Q) highest negatives, at least one."""
    if not (0.0 < fpr_max <= 1.0):
        raise ValueError("fpr_max must be in (0, 1]")
    keep = int(np.floor(fpr_max * neg_scores.size + 1e-9))  # 1/q keeps one
    if keep == 0:
        raise ValueError(f"fpr_max={fpr_max} keeps zero of {neg_scores.size} negatives")
    # Ties at the quantile boundary break by score then by position index.
    order = np.lexsort((np.arange(neg_scores.size), -neg_scores))
    return neg_scores[order[:keep]]


def partial_auc_bruteforce(pos, neg, fpr_max: float) -> float:
    """auc_bruteforce against the hardest fpr_max fraction of negatives."""
    return auc_bruteforce(pos, _hardest_negatives(np.asarray(neg, dtype=float), fpr_max))


class Buffer:
    """Shuffled queue of positions into a received score block, drawn
    sequentially without replacement. If a draw exhausts the buffer
    mid-round it reshuffles the same positions and continues (wrap-around);
    ``wraps`` counts those events. A round reads ``count`` positions in
    all: each full lap is the generator's next ``permutation(size)``, and a
    last, partial lap of m positions its ``choice(size, m, replace=False)``.
    """

    def __init__(self) -> None:
        self.block: np.ndarray | None = None  # the shared aggregate, not a copy
        self.u: np.ndarray | None = None  # the u-values of its samples, if any
        self.cursor = 0
        self.wraps = 0

    def refill(self, block: np.ndarray, rng: np.random.Generator, count: int, u=None) -> None:
        """Flush and replace contents with the first lap over ``block``'s
        positions, for a round that draws ``count`` of them; ``u`` holds
        the u-value at each of them."""
        if not len(block):
            raise ProtocolError("cannot refill a buffer from an empty aggregate")
        self.block, self.u = block, u
        self._rng, self._left = rng, count
        self._reshuffle()

    def _reshuffle(self) -> None:
        size = len(self.block)
        self._order = (self._rng.permutation(size) if self._left >= size
                       else self._rng.choice(size, self._left, replace=False))
        self.cursor = 0

    def draw(self, count: int) -> np.ndarray:
        """Positions in ``block`` of the next ``count`` entries."""
        if count > self._left:
            raise ProtocolError(f"draw of {count} past the round's {self._left} left")
        parts = []
        while count:
            if self.cursor >= len(self._order):
                self._reshuffle()
                self.wraps += 1
            part = self._order[self.cursor:self.cursor + count]
            parts.append(part)
            self.cursor += len(part)
            self._left -= len(part)
            count -= len(part)
        return np.concatenate(parts)


# ------------------------------------------------------ the per-client round

@dataclass(frozen=True)
class ClientUpload:
    """One client's upload of a round, and the sample ids of its scores.
    Scores, u-values and ids are (K, n), row k iteration k's; None where
    the algorithm emits none."""

    model: np.ndarray
    h1: np.ndarray | None = None
    h2: np.ndarray | None = None
    h1_u: np.ndarray | None = None
    momentum: np.ndarray | None = None
    ids1: np.ndarray | None = None
    ids2: np.ndarray | None = None


def stack_uploads(uploads: list[ClientUpload]) -> tuple[RoundUpload, tuple]:
    """The round's upload table of every client's upload, in client order,
    and the (N, K, n1) and (N, K, n2) sample ids of its h1 and h2."""

    def stacked(name):
        parts = [getattr(up, name) for up in uploads]
        return None if parts[0] is None else np.stack(parts)

    table = RoundUpload(models=stacked("model"), h1=stacked("h1"), h2=stacked("h2"),
                        h1_u=stacked("h1_u"), momenta=stacked("momentum"))
    return table, (stacked("ids1"), stacked("ids2"))


def emitted_ids(program) -> tuple:
    """The sample ids of the engine's emitted scores, (N, K, n1) and (N, K,
    n2) in upload order, or (None, None) where it emits none. Read before
    the next round's state replaces the emission batches."""
    if program.h1 is None:
        return None, None
    return tuple(ids[program.rows, at].transpose(1, 0, 2)
                 for ids, at in ((program.pos_ids, program.zh1), (program.neg_ids, program.zh2)))


@dataclass
class ClientState:
    """One client's exclusively-owned mutable state."""

    index: int
    shard: Shard
    settings: RunSettings
    model: np.ndarray
    momentum: np.ndarray | None = None
    u_table: UTable | None = None
    pos_buffer: Buffer | None = None
    neg_buffer: Buffer | None = None
    # ClientUpload field -> one entry per emission this round.
    out: dict[str, list] = field(default_factory=dict)

    def emit(self, h1, ids1, h2, ids2, h1_u=None) -> None:
        """Keep one iteration's scores of each side with their sample ids,
        and the u-values of the h1 samples when the algorithm shares them."""
        for name, value in (("h1", h1), ("ids1", ids1), ("h2", h2), ("ids2", ids2), ("h1_u", h1_u)):
            if value is not None:
                self.out.setdefault(name, []).append(value)


def _draw_batch(rng: np.random.Generator, n: int, batch: int) -> np.ndarray:
    return rng.choice(n, size=min(batch, n), replace=False)


def fedx1_estimate(st, iteration, z1, z2, lazy_neg, lazy_pos):
    """Linear-outer estimate of one client; appends its fresh scores to the
    outgoing histories with provenance."""
    if len(z1) != len(lazy_neg) or len(z2) != len(lazy_pos):
        raise ValueError("each active sample needs exactly one lazy record")
    s, shard = st.settings, st.shard
    x1, x2 = shard.pos_X[z1], shard.neg_X[z2]
    a, pull1 = score_grad_many(s.scorer, st.model, x1)
    b, pull2 = score_grad_many(s.scorer, st.model, x2)
    d1 = -loss_and_slope(s.loss, a, lazy_neg)[1]
    d2 = loss_and_slope(s.loss, lazy_pos, b)[1]
    g = pull1(np.asarray(d1)) / len(z1) + pull2(np.asarray(d2)) / len(z2)
    st.emit(a, shard.pos_ids[z1], b, shard.neg_ids[z2])
    return g


def fedx2_estimate(st, z1, z2, lazy_neg, lazy_pos, lazy_u):
    """Nonlinear-outer estimate of one client, at its tracked means."""
    if len(z1) != len(lazy_neg):
        raise ValueError("each positive sample needs exactly one lazy negative score")
    if len(z2) != len(lazy_pos) or len(z2) != len(lazy_u):
        raise ValueError("each negative sample needs one lazy (score, u) pair")
    s, shard = st.settings, st.shard
    x1, x2 = shard.pos_X[z1], shard.neg_X[z2]
    a, pull1 = score_grad_many(s.scorer, st.model, x1)
    b, pull2 = score_grad_many(s.scorer, st.model, x2)
    d1 = -loss_and_slope(s.loss, a, lazy_neg)[1]
    d2 = loss_and_slope(s.loss, lazy_pos, b)[1]
    w1 = np.asarray(outer_deriv(s.outer, st.u_table.values[z1])) * np.asarray(d1)
    w2 = np.asarray(outer_deriv(s.outer, lazy_u)) * np.asarray(d2)
    return pull1(w1) / len(z1) + pull2(w2) / len(z2)


class ReferenceProgram:
    """All five algorithms, one client at a time."""

    def __init__(self, settings: RunSettings) -> None:
        self.settings = s = settings
        self.alg = s.algorithm
        nonlinear = s.outer.kind != "identity"
        self.shares_histories = self.alg in ("fedx1", "fedx2")
        self.uses_u = self.alg == "fedx2" or (self.alg in ("local_pair", "centralized") and nonlinear)
        self.uses_momentum = self.uses_u

    def init_states(self, dataset: FederatedDataset) -> list[ClientState]:
        s = self.settings
        if self.alg == "centralized":
            shards = [Shard(*dataset.pos_union(), *dataset.neg_union())]
        else:
            shards = [client_shard(dataset, i) for i in range(dataset.n_clients)]
        w0 = initial_model(s.scorer, s.seed)
        states = []
        for i, shard in enumerate(shards):
            st = ClientState(index=i, shard=shard, settings=s, model=w0.copy())
            if self.uses_momentum:
                st.momentum = np.zeros_like(w0)
            if self.uses_u:
                st.u_table = UTable(shard.n_pos)
            if self.shares_histories:
                st.pos_buffer, st.neg_buffer = Buffer(), Buffer()
            states.append(st)
        return states

    def bootstrap_upload(self, st: ClientState) -> ClientUpload:
        s = self.settings
        if self.shares_histories:
            for k in range(s.hyper.K):
                g = substream(s.seed, "bootstrap", st.index, k)
                z1 = _draw_batch(g, st.shard.n_pos, s.hyper.B1)
                z2 = _draw_batch(g, st.shard.n_neg, s.hyper.B2)
                a = score_many(s.scorer, st.model, st.shard.pos_X[z1])
                b = score_many(s.scorer, st.model, st.shard.neg_X[z2])
                u = loss(s.loss, a, b[np.arange(len(a)) % len(b)]) if self.uses_u else None
                st.emit(a, st.shard.pos_ids[z1], b, st.shard.neg_ids[z2], u)
        return self.build_upload(st)

    def build_upload(self, st: ClientState) -> ClientUpload:
        up = ClientUpload(
            model=st.model.copy(),
            momentum=st.momentum.copy() if self.uses_momentum else None,
            **{name: np.stack(parts) for name, parts in st.out.items()},
        )
        st.out = {}
        return up

    def begin_round(self, st: ClientState, download: RoundDownload, r: int) -> None:
        s = self.settings
        st.model = download.model.copy()
        if self.uses_momentum:
            st.momentum = download.momentum.copy()
        if self.shares_histories:
            # The round's K steps read min(B2, n_neg) and min(B1, n_pos) a step.
            K = s.hyper.K
            st.pos_buffer.refill(download.r1, substream(s.seed, "buffer-pos", st.index, r),
                                 K * min(s.hyper.B2, st.shard.n_neg), download.r1_u)
            st.neg_buffer.refill(download.r2, substream(s.seed, "buffer-neg", st.index, r),
                                 K * min(s.hyper.B1, st.shard.n_pos))

    def local_step(self, st: ClientState, r: int, k: int, eta: float):
        """One local step of one client. Returns its pair-loss estimate,
        tracked u-values of the sampled positives (None without a tracker)
        and gradient estimate."""
        s, h = self.settings, self.settings.hyper
        g = substream(s.seed, "step", st.index, r, k)
        if self.alg == "local_sgd":
            X = np.vstack([st.shard.pos_X, st.shard.neg_X])
            y = np.concatenate([np.ones(st.shard.n_pos), -np.ones(st.shard.n_neg)])
            idx = _draw_batch(g, X.shape[0], h.B1 + h.B2)
            xb, yb = X[idx], y[idx]
            scores, pullback = score_grad_many(s.scorer, st.model, xb)
            grad = pullback(-yb * expit(-yb * scores)) / len(idx)
            st.model = st.model - eta * grad
            return float(np.mean(np.logaddexp(0.0, -yb * scores))), None, grad
        z1 = _draw_batch(g, st.shard.n_pos, h.B1)
        z2 = _draw_batch(g, st.shard.n_neg, h.B2)
        if self.alg == "fedx1":
            lazy_neg = st.neg_buffer.block[st.neg_buffer.draw(len(z1))]
            lazy_pos = st.pos_buffer.block[st.pos_buffer.draw(len(z2))]
            grad = fedx1_estimate(st, k, z1, z2, lazy_neg, lazy_pos)
            est = float(np.mean(loss(s.loss, st.out["h1"][-1], lazy_neg)))
            st.model = st.model - eta * grad
            return est, None, grad
        if self.alg == "fedx2":
            return self._fedx2_step(st, g, k, z1, z2, eta)
        x1, x2 = st.shard.pos_X[z1], st.shard.neg_X[z2]
        a, pull1 = score_grad_many(s.scorer, st.model, x1)
        b, pull2 = score_grad_many(s.scorer, st.model, x2)
        n1, n2 = len(z1), len(z2)
        if self.alg == "local_pair":
            part_b, part_a = b[np.arange(n1) % n2], a[np.arange(n2) % n1]
            pair_loss = loss(s.loss, a, part_b)
            d1 = -loss_and_slope(s.loss, a, part_b)[1]
            d2 = loss_and_slope(s.loss, part_a, b)[1]
            if self.uses_u:
                st.u_table.track(z1, pair_loss, h.gamma)
                u1 = st.u_table.values[z1]
                w1 = np.asarray(outer_deriv(s.outer, u1)) * np.asarray(d1)
                w2 = np.asarray(outer_deriv(s.outer, u1[np.arange(n2) % n1])) * np.asarray(d2)
                grad = pull1(w1) / n1 + pull2(w2) / n2
                st.momentum = momentum_update(st.momentum, grad, h.beta)
                st.model = st.model - eta * st.momentum
                return float(np.mean(pair_loss)), u1, grad
            grad = pull1(np.asarray(d1)) / n1 + pull2(np.asarray(d2)) / n2
            st.model = st.model - eta * grad
            return float(np.mean(pair_loss)), None, grad
        # centralized
        d2 = loss_and_slope(s.loss, a[:, None], b[None, :])[1]
        d1 = -d2
        if self.uses_u:
            lmat = loss(s.loss, a[:, None], b[None, :])
            st.u_table.track(z1, lmat.mean(axis=1), h.gamma)
            fpu = np.asarray(outer_deriv(s.outer, st.u_table.values[z1]))
            grad = (pull1(fpu * d1.sum(axis=1)) + pull2(fpu @ d2)) / (n1 * n2)
            st.momentum = momentum_update(st.momentum, grad, h.beta)
            st.model = st.model - eta * st.momentum
            return float(lmat.mean()), st.u_table.values[z1], grad
        grad = (pull1(d1.sum(axis=1)) + pull2(d2.sum(axis=0))) / (n1 * n2)
        st.model = st.model - eta * grad
        return float(np.mean(loss(s.loss, a[:, None], b[None, :]))), None, grad

    def _fedx2_step(self, st, g, k, z1, z2, eta):
        s, h = self.settings, self.settings.hyper
        lazy_neg = st.neg_buffer.block[st.neg_buffer.draw(len(z1))]
        paired = st.pos_buffer.draw(len(z2))
        lazy_pos = st.pos_buffer.block[paired]
        lazy_u = st.pos_buffer.u[paired]
        a = score_many(s.scorer, st.model, st.shard.pos_X[z1])
        pair_loss = loss(s.loss, a, lazy_neg)
        st.u_table.track(z1, pair_loss, h.gamma)
        grad = fedx2_estimate(st, z1, z2, lazy_neg, lazy_pos, lazy_u)
        if h.history_samples == "independent":
            zh1 = _draw_batch(g, st.shard.n_pos, h.B1)
            zh2 = _draw_batch(g, st.shard.n_neg, h.B2)
            ah = score_many(s.scorer, st.model, st.shard.pos_X[zh1])
        else:
            zh1, zh2, ah = z1, z2, a
        bh = score_many(s.scorer, st.model, st.shard.neg_X[zh2])
        u_emit = st.u_table.emission(zh1, loss(s.loss, ah, lazy_neg))
        st.emit(ah, st.shard.pos_ids[zh1], bh, st.shard.neg_ids[zh2], u_emit)
        st.momentum = momentum_update(st.momentum, grad, h.beta)
        st.model = st.model - eta * st.momentum
        return float(np.mean(pair_loss)), st.u_table.values[z1], grad


def _one_client(st, z1, z2, lazy_neg, lazy_pos):
    """The estimator's arguments for one client: score pullbacks at the
    sampled rows and the slopes against the lazy scores."""
    s, w = st.settings, st.model[None]
    x1, x2 = st.shard.pos_X[z1][None], st.shard.neg_X[z2][None]
    (a, pull1), (b, pull2) = score_grad_many(s.scorer, w, x1), score_grad_many(s.scorer, w, x2)
    d1 = -loss_and_slope(s.loss, a, lazy_neg[None])[1]
    return s.outer, pull1, pull2, d1, loss_and_slope(s.loss, lazy_pos[None], b)[1]


def one_client_fedx1(st, z1, z2, lazy_neg, lazy_pos) -> np.ndarray:
    """The package's fedx1 estimate for ``st`` at the sampled rows."""
    return algorithms.fedx_estimate(*_one_client(st, z1, z2, lazy_neg, lazy_pos))[0]


def one_client_fedx2(st, z1, z2, lazy_neg, lazy_pos, lazy_u) -> np.ndarray:
    """The package's fedx2 estimate for ``st``, at its tracked means of z1."""
    args = _one_client(st, z1, z2, lazy_neg, lazy_pos)
    return algorithms.fedx_estimate(*args, st.u_table.values[z1][None], lazy_u[None])[0]


@dataclass
class ReferenceRound:
    table: RoundUpload
    ids: tuple  # the sample ids of the table's h1 and h2, or None
    download: RoundDownload
    estimates: np.ndarray  # (K, N)
    wraps: int


def reference_rounds(
    algorithm: str,
    dataset: FederatedDataset,
    scorer: ScorerSpec,
    loss_spec: PairwiseLossSpec,
    outer,
    hyper: HyperParams,
) -> list[ReferenceRound]:
    """Round 0 and rounds 1..R, each client's K steps one after another in
    client order. Raises FloatingPointError at the first non-finite
    emitted u-value of the bootstrap, or at the first step with a non-finite
    pair-loss estimate, u-value, gradient estimate, emitted u-value or
    model, checked in that order, naming it, its client, round and
    iteration."""
    program = ReferenceProgram(RunSettings(algorithm, scorer, loss_spec, outer, hyper))
    states = program.init_states(dataset)

    def wraps() -> int:
        return sum(b.wraps for st in states for b in (st.pos_buffer, st.neg_buffer) if b)

    def watch(st, r, k, watched):
        for name, value in watched:
            if value is not None and not np.all(np.isfinite(value)):
                raise FloatingPointError(f"diverged: non-finite {name} on client {st.index} "
                                         f"at round {r}, iteration {k}")

    uploads = [program.bootstrap_upload(st) for st in states]
    for st, up in zip(states, uploads):
        for k in range(hyper.K if up.h1_u is not None else 0):
            watch(st, 0, k, [("emitted u-value", up.h1_u[k])])
    table, ids = stack_uploads(uploads)
    rounds = [ReferenceRound(table, ids, server_aggregate(table), np.empty((0, len(states))), 0)]
    for r in range(1, hyper.R + 1):
        before = wraps()
        estimates = np.empty((hyper.K, len(states)))
        uploads = []
        for st in states:
            program.begin_round(st, rounds[-1].download, r)
            for k in range(hyper.K):
                est, u, grad = program.local_step(st, r, k, hyper.eta_at((r - 1) * hyper.K + k))
                emitted_u = st.out["h1_u"][-1] if "h1_u" in st.out else None
                watch(st, r, k, [("pair-loss estimate", est), ("u-value", u),
                                 ("gradient estimate", grad), ("emitted u-value", emitted_u),
                                 ("model", st.model)])
                estimates[k, st.index] = est
            uploads.append(program.build_upload(st))
        table, ids = stack_uploads(uploads)
        rounds.append(ReferenceRound(table, ids, server_aggregate(table), estimates,
                                     wraps() - before))
    return rounds

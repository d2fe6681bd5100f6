"""Communication fabric: the round's upload table, server aggregation, and
message accounting.

One round = every client uploads (model, this round's scores, and for the
nonlinear-f algorithm its momentum and u-values), the server averages the
models (and momenta) and passes the scores on, and the aggregate is
broadcast back. The round engine in :mod:`fedcpr.algorithms` builds one
:class:`RoundUpload` table of all N uploads after every client's K local
steps, then calls :func:`server_aggregate` once, so no client sees round
r+1 state before every round-r upload is in.

A side's scores are one client-major (N, K, n) float array: entry [i, k, m]
is client i's score at iteration k of the m-th sample of its emission
batch. fedx2's u-values are an array of the same shape, entry for entry
the u-value of the scored sample. The download flattens each array in C
order, so one position reads a score and the u-value of the same sample.
Clients read the download at positions that :mod:`fedcpr.rng` draws afresh
each round, so scores consumed in round r were produced in round r-1, never
earlier. Only what is counted is sent: the sampled rows' identities stay
with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ProtocolError(RuntimeError):
    """A violation of the round exchange contract."""


@dataclass(frozen=True)
class RoundUpload:
    """All N uploads of a round: row i of every array is client i's. A block
    a program does not emit is None."""

    models: np.ndarray  # (N, d)
    h1: np.ndarray | None = None  # (N, K, n1) positive-side scores produced this round
    h2: np.ndarray | None = None  # (N, K, n2) negative-side scores produced this round
    h1_u: np.ndarray | None = None  # (N, K, n1) u-values of the h1 samples, fedx2 only
    momenta: np.ndarray | None = None  # (N, d), nonlinear-f algorithms only


@dataclass(frozen=True)
class RoundDownload:
    """The aggregate: the mean model (and momentum), and each upload block
    flattened in C order, position (i*K + k)*n + m holding entry [i, k, m]."""

    model: np.ndarray
    r1: np.ndarray | None = None  # every client's positive-side scores
    r2: np.ndarray | None = None  # every client's negative-side scores
    r1_u: np.ndarray | None = None  # the u-values of the r1 samples
    momentum: np.ndarray | None = None


def tree_mean(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mean with deterministic pairwise-tree summation in list (row) order."""

    def tree_sum(lo: int, hi: int) -> np.ndarray:
        if hi - lo == 1:
            return vectors[lo]
        mid = (lo + hi) // 2
        return tree_sum(lo, mid) + tree_sum(mid, hi)

    return tree_sum(0, len(vectors)) / len(vectors)


def server_aggregate(table: RoundUpload) -> RoundDownload:
    """Average the models (and momenta); the score blocks pass through.

    Raises :class:`ProtocolError` for a table without clients, a score
    block that is not (N, K, n) with one row per model row, or u-values not
    shaped like the scores.
    """
    n = len(table.models)
    if not n:
        raise ProtocolError("no uploads to aggregate")
    blocks = {"h1": table.h1, "h2": table.h2, "h1_u": table.h1_u}
    for name, block in blocks.items():
        if block is not None and (block.ndim != 3 or len(block) != n):
            raise ProtocolError(f"{name} must hold one row per client")
    if table.h1_u is not None and (table.h1 is None or table.h1_u.shape != table.h1.shape):
        raise ProtocolError("h1_u must be shaped like h1")
    r1, r2, r1_u = (None if b is None else b.reshape(-1) for b in blocks.values())
    return RoundDownload(
        model=tree_mean(table.models),
        r1=r1,
        r2=r2,
        r1_u=r1_u,
        momentum=None if table.momenta is None else tree_mean(table.momenta),
    )


def comm_cost(upload: RoundUpload, download: RoundDownload) -> tuple[int, int]:
    """(uplink_floats, downlink_floats): the real numbers one client sends,
    its row of every upload array, and the ones every client receives, the
    whole download. Every client's row has the same shape."""
    up = (upload.models, upload.momenta, upload.h1, upload.h2, upload.h1_u)
    down = (download.model, download.momentum, download.r1, download.r2, download.r1_u)
    return (sum(a[0].size for a in up if a is not None),
            sum(a.size for a in down if a is not None))

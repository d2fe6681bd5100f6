"""Communication fabric: record blocks, shuffled buffer draws, server
aggregation, and message accounting.

One round = every client uploads (model, this round's score records, and
for the nonlinear-f algorithm its momentum and u-values), the server
averages the models (and momenta) and passes the record blocks on, and the
aggregate is broadcast back. The round engine in :mod:`fedcpr.algorithms`
builds one :class:`RoundUpload` table of all N uploads after every client's
K local steps, then calls :func:`server_aggregate` once, so no client sees
round r+1 state before every round-r upload is in.

Every record set is one :class:`Records` block of equal-length numpy
columns. A positive-side score and the u-value of the same sample share one
row, so a draw reads both at one position. Clients read a received block at
the positions :func:`buffer_draw` gives: a shuffle of the whole block,
drawn without replacement. Records consumed in round r were produced in
round r-1, never earlier, because every round's draws are made afresh from
that round's aggregate.

Record provenance (client, iteration, sample_id) is carried for
testability; the math needs only the ``value`` and ``u`` columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_COLUMNS = {
    "value": np.float64,
    "client": np.int32,
    "iteration": np.int32,
    "sample_id": np.int64,
    "u": np.float64,
}


class ProtocolError(RuntimeError):
    """A violation of the round exchange contract."""


@dataclass(frozen=True, eq=False)
class Records:
    """A block of communicated scores: one row per record, ``value`` with
    its provenance ``client``, ``iteration`` and ``sample_id``, and for the
    nonlinear-f algorithm's positive side the sample's u-value ``u``, as
    equal-length columns."""

    value: np.ndarray
    client: np.ndarray
    iteration: np.ndarray
    sample_id: np.ndarray
    u: np.ndarray | None = None

    def __post_init__(self) -> None:
        names = [name for name in _COLUMNS if getattr(self, name) is not None]
        for name in names:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=_COLUMNS[name]))
        if any(getattr(self, name).shape != self.value.shape for name in names):
            raise ValueError("record columns must have equal shapes")

    def __len__(self) -> int:
        return len(self.value)

    @classmethod
    def concat(cls, blocks: Sequence[Records]) -> Records:
        """The blocks' rows in order; no blocks give an empty block. Either
        every block has a ``u`` column or none has."""
        with_u = {b.u is not None for b in blocks}
        if len(with_u) > 1:
            raise ValueError("cannot concatenate blocks with and without u-values")
        return cls(**{name: np.concatenate([getattr(b, name) for b in blocks]) if blocks else []
                      for name in _COLUMNS if name != "u" or with_u == {True}})


@dataclass(frozen=True)
class RoundUpload:
    """All N uploads of a round: row i of ``models`` (and ``momenta``) is
    client i's; each record block holds every client's rows in client order."""

    models: np.ndarray  # (N, d)
    h1: Records  # positive-side scores produced this round, with u-values for fedx2
    h2: Records  # negative-side scores produced this round
    momenta: np.ndarray | None = None  # (N, d), nonlinear-f algorithms only


@dataclass(frozen=True)
class RoundDownload:
    model: np.ndarray
    r1: Records  # aggregated positive-side scores (and u-values)
    r2: Records  # aggregated negative-side scores
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
    """Average the models (and momenta); the record blocks pass through.

    Raises :class:`ProtocolError` for a table without clients, or a record
    block out of client order or naming a client outside 0..N-1.
    """
    n = len(table.models)
    if not n:
        raise ProtocolError("no uploads to aggregate")
    for name, block in (("h1", table.h1), ("h2", table.h2)):
        c = block.client
        if len(c) and (c[0] < 0 or c[-1] >= n or (np.diff(c) < 0).any()):
            raise ProtocolError(f"{name} records must be in client order, clients 0..{n - 1}")
    return RoundDownload(
        model=tree_mean(table.models),
        r1=table.h1,
        r2=table.h2,
        momentum=None if table.momenta is None else tree_mean(table.momenta),
    )


def buffer_draw(
    rng: np.random.Generator, size: int, count: int
) -> tuple[np.ndarray, int]:
    """``count`` positions into a received block of ``size`` records, drawn
    without replacement from a shuffle of the block, and the wraps.

    When the draws exhaust the block mid-round, the same positions are
    reshuffled and drawing continues (wrap-around); ``wraps`` counts those
    events so tests can assert they never happen under default
    configurations. Each lap is the next ``rng.permutation(size)``; the
    positions come back in an array of their own, so no lap outlives the
    call.
    """
    if not size:
        raise ProtocolError("cannot draw from an empty aggregate")
    if count < 1:
        raise ValueError("count must be positive")
    out = np.empty(count, dtype=np.int64)
    for done in range(0, count, size):
        out[done:done + size] = rng.permutation(size)[:count - done]
    return out, (count - 1) // size


def comm_cost(upload: RoundUpload, download: RoundDownload) -> tuple[np.ndarray, int]:
    """(uplink_floats, downlink_floats): every real number in each client's
    rows of the upload table, an (N,) array in client order, and in the
    download every client receives. A record carries its score, and its
    u-value where the block has one; the provenance integers are not
    counted.
    """
    n = len(upload.models)
    up = sum(np.bincount(b.client, minlength=n) * (1 if b.u is None else 2)
             for b in (upload.h1, upload.h2))
    down = sum(len(b) * (1 if b.u is None else 2) for b in (download.r1, download.r2))
    return (up + upload.models.shape[1] * (1 if upload.momenta is None else 2),
            down + download.model.size * (1 if download.momentum is None else 2))

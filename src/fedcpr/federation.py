"""Communication fabric: record blocks, shuffled buffer draws, server
aggregation, and message accounting.

One round = every client uploads (model, this round's score records, and
for the nonlinear-f algorithm its momentum and u-records), the server
averages the models (and momenta) and passes the record blocks on, and the
aggregate is broadcast back. The round engine in :mod:`fedcpr.algorithms`
builds one :class:`RoundUpload` table of all N uploads after every client's
K local steps, then calls :func:`server_aggregate` once, so no client sees
round r+1 state before every round-r upload is in.

Every record set is one :class:`Records` block of equal-length numpy
columns. Clients read a received block at the positions
:func:`buffer_draw` gives: a shuffle of the whole block, drawn without
replacement. Records consumed in round r were produced in round r-1, never
earlier, because every round's draws are made afresh from that round's
aggregate.

Record provenance (client, iteration, sample_id) is carried for
testability; the math needs only the ``value`` column.
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
}


class ProtocolError(RuntimeError):
    """A violation of the round exchange contract."""


@dataclass(frozen=True, eq=False)
class Records:
    """A block of communicated floats (scores or u-values): one row per
    record, ``value`` with its provenance ``client``, ``iteration`` and
    ``sample_id``, as equal-length columns."""

    value: np.ndarray
    client: np.ndarray
    iteration: np.ndarray
    sample_id: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if any(getattr(self, name).shape != self.value.shape for name in _COLUMNS):
            raise ValueError("record columns must have equal shapes")

    def __len__(self) -> int:
        return len(self.value)

    @classmethod
    def concat(cls, blocks: Sequence[Records]) -> Records:
        """The blocks' rows in order; no blocks give an empty block."""
        return cls(*(
            np.concatenate([getattr(b, name) for b in blocks]) if blocks else []
            for name in _COLUMNS
        ))


@dataclass(frozen=True)
class RoundUpload:
    """All N uploads of a round: row i of ``models`` (and ``momenta``) is
    client i's; each record block holds every client's rows in client order."""

    models: np.ndarray  # (N, d)
    h1: Records  # positive-side scores produced this round
    h2: Records  # negative-side scores produced this round
    momenta: np.ndarray | None = None  # (N, d), nonlinear-f algorithms only
    u: Records | None = None  # nonlinear-f algorithms only, row-aligned with h1


@dataclass(frozen=True)
class RoundDownload:
    model: np.ndarray
    r1: Records  # aggregated positive-side scores
    r2: Records  # aggregated negative-side scores
    momentum: np.ndarray | None = None
    p: Records | None = None  # aggregated u-records, row-aligned with r1


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

    Raises :class:`ProtocolError` for a table without clients, a record
    block out of client order or naming a client outside 0..N-1, or
    u-records that are not row-aligned with the positive-side scores.
    """
    n = len(table.models)
    if not n:
        raise ProtocolError("no uploads to aggregate")
    for name, block in (("h1", table.h1), ("h2", table.h2), ("u", table.u)):
        c = () if block is None else block.client
        if len(c) and (c[0] < 0 or c[-1] >= n or (np.diff(c) < 0).any()):
            raise ProtocolError(f"{name} records must be in client order, clients 0..{n - 1}")
    if table.u is not None and not all(
        np.array_equal(getattr(table.u, name), getattr(table.h1, name))
        for name in ("client", "iteration", "sample_id")
    ):
        raise ProtocolError("u-records must be row-aligned with the positive-side scores")
    return RoundDownload(
        model=tree_mean(table.models),
        r1=table.h1,
        r2=table.h2,
        momentum=None if table.momenta is None else tree_mean(table.momenta),
        p=table.u,
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


def _floats(rows: int, model: np.ndarray, momentum: np.ndarray | None) -> int:
    """``rows`` records and ``model``, twice over with a momentum, in floats."""
    return rows + model.size * (1 if momentum is None else 2)


def _record_rows(
    upload: RoundUpload, download: RoundDownload, client: int | None
) -> tuple[int, int]:
    """Records of ``client`` (of every client for None) in the upload table,
    and records downloaded."""
    mine = sum(len(block) if client is None else int(np.count_nonzero(block.client == client))
               for block in (upload.h1, upload.h2, upload.u) if block is not None)
    return mine, len(download.r1) + len(download.r2) + len(download.p or ())


def comm_cost(upload: RoundUpload, download: RoundDownload, client: int) -> tuple[int, int]:
    """(uplink_floats, downlink_floats) of one client: every real number in
    its rows of the upload table and in the download.

    Provenance integers are excluded; see :func:`comm_cost_ints`.
    """
    up, down = _record_rows(upload, download, client)
    return (_floats(up, upload.models[client], upload.momenta),
            _floats(down, download.model, download.momentum))


def round_floats(upload: RoundUpload, download: RoundDownload) -> int:
    """:func:`comm_cost` summed over the round's N clients, both directions:
    the whole upload table and N downloads, with no scan per client."""
    up, down = _record_rows(upload, download, None)
    return (_floats(up, upload.models, upload.momenta)
            + len(upload.models) * _floats(down, download.model, download.momentum))


def comm_cost_ints(upload: RoundUpload, download: RoundDownload, client: int) -> tuple[int, int]:
    """Provenance integers (client, iteration, sample_id per record) of one
    client's messages, counted separately from the float payload."""
    up, down = _record_rows(upload, download, client)
    return 3 * up, 3 * down

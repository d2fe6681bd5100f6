"""Communication fabric: record blocks, shuffled buffer draws, server
aggregation, and message accounting.

One round = every client uploads (model, this round's score records, and
for the nonlinear-f algorithm its momentum and u-records), the server
averages the models (and momenta) and concatenates the record blocks in
client-index order, and the aggregate is broadcast back. The round engine
in :mod:`fedcpr.algorithms` drives this: it builds all N uploads after every
client's K local steps, then calls :func:`server_aggregate` once, so no
client sees round r+1 state before every round-r upload is in.

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
    client: int
    model: np.ndarray
    h1: Records  # positive-side scores produced this round
    h2: Records  # negative-side scores produced this round
    momentum: np.ndarray | None = None  # nonlinear-f algorithms only
    u: Records | None = None  # nonlinear-f algorithms only


@dataclass(frozen=True)
class RoundDownload:
    model: np.ndarray
    r1: Records  # aggregated positive-side scores
    r2: Records  # aggregated negative-side scores
    momentum: np.ndarray | None = None
    p: Records | None = None  # aggregated u-records, row-aligned with r1


def tree_mean(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mean with deterministic pairwise-tree summation in list order."""

    def tree_sum(lo: int, hi: int) -> np.ndarray:
        if hi - lo == 1:
            return vectors[lo]
        mid = (lo + hi) // 2
        return tree_sum(lo, mid) + tree_sum(mid, hi)

    return tree_sum(0, len(vectors)) / len(vectors)


def server_aggregate(uploads: Sequence[RoundUpload]) -> RoundDownload:
    """Average models (and momenta), concatenate record blocks in client order.

    Arrival order does not matter: uploads are sorted by client index before
    reducing. Client indices must be exactly 0..N-1.
    """
    if not uploads:
        raise ProtocolError("no uploads to aggregate")
    ordered = sorted(uploads, key=lambda u: u.client)
    if [u.client for u in ordered] != list(range(len(ordered))):
        raise ProtocolError(
            f"expected client indices 0..{len(ordered) - 1}, "
            f"got {[u.client for u in ordered]}"
        )
    dim = ordered[0].model.size
    if any(u.model.size != dim for u in ordered):
        raise ProtocolError("uploaded models have mismatched lengths")
    with_momentum = [u.momentum is not None for u in ordered]
    if any(with_momentum) and not all(with_momentum):
        raise ProtocolError("momentum must be present on all uploads or none")
    with_u = [u.u is not None for u in ordered]
    if any(with_u) and not all(with_u):
        raise ProtocolError("u-records must be present on all uploads or none")

    return RoundDownload(
        model=tree_mean([u.model for u in ordered]),
        r1=Records.concat([u.h1 for u in ordered]),
        r2=Records.concat([u.h2 for u in ordered]),
        momentum=tree_mean([u.momentum for u in ordered]) if all(with_momentum) else None,
        p=Records.concat([u.u for u in ordered]) if all(with_u) else None,
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


def comm_cost(upload: RoundUpload, download: RoundDownload) -> tuple[int, int]:
    """(uplink_floats, downlink_floats): every real number in the messages.

    Provenance integers are excluded; see :func:`comm_cost_ints`.
    """
    up = upload.model.size + len(upload.h1) + len(upload.h2) + len(upload.u or ())
    if upload.momentum is not None:
        up += upload.momentum.size
    down = download.model.size + len(download.r1) + len(download.r2) + len(download.p or ())
    if download.momentum is not None:
        down += download.momentum.size
    return int(up), int(down)


def comm_cost_ints(upload: RoundUpload, download: RoundDownload) -> tuple[int, int]:
    """Provenance integers (client, iteration, sample_id per record),
    counted separately from the float payload."""
    up = 3 * (len(upload.h1) + len(upload.h2) + len(upload.u or ()))
    down = 3 * (len(download.r1) + len(download.r2) + len(download.p or ()))
    return up, down

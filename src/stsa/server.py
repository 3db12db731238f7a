"""Server-side aggregation: spatial, temporal, gram estimation, classifier.

Spatial aggregation folds client statistics into a running sum within a
task, one upload at a time; temporal aggregation accumulates the gram
across tasks and concatenates correlation columns. When clients upload
first-order records only, the server reconstructs an unbiased estimate of
the task gram from the per-record correlation columns and label
frequencies before accumulating it.

Every gram on the server is its packed upper triangle: M(M+1)/2 entries in
row-major (``np.triu_indices``) order, the format clients upload. The
stage sum, the estimate and the temporal state all stay packed, and
``update_classifier`` hands the packed state to the solve as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    _SYMMETRY_BLOCK,
    ClassifierWeights,
    SpatialStatistics,
    ridge_solve,
)
from .errors import EstimationError, ProtocolError

#: Contributing noised label frequencies are floored here before division.
MIN_COUNT = 1e-6


@dataclass(frozen=True)
class StageAggregate:
    """Spatially aggregated statistics for one task.

    ``gram`` is the exact summed G in full mode, as its packed upper
    triangle, and None in efficient mode.
    ``records`` holds the efficient-mode first-order records in canonical
    (client id, record position) order, for the gram estimator; it is empty
    in full mode, where every client gram is dropped once it has been summed.
    """

    gram: np.ndarray | None
    corr: np.ndarray
    records: tuple[SpatialStatistics, ...]


@dataclass(frozen=True)
class TemporalState:
    """Accumulated statistics over the stages folded in so far.

    ``gram_acc`` is the summed (exact or estimated) gram as its packed upper
    triangle, ``corr_acc`` the column-concatenated correlations, whose row
    count is the mapped dimension M, ``class_ids`` the concatenated task
    class lists in arrival order; the initial state has no class ids.
    """

    gram_acc: np.ndarray
    corr_acc: np.ndarray
    class_ids: tuple[int, ...]

    @classmethod
    def initial(cls, m: int) -> "TemporalState":
        return cls(
            gram_acc=np.zeros(m * (m + 1) // 2), corr_acc=np.zeros((m, 0)), class_ids=()
        )


def spatial_aggregate(
    payloads: Iterable, task_classes: Sequence[int], client_count: int
) -> StageAggregate:
    """Sum one task's uploads across clients, folding each in as it arrives.

    ``payloads`` is consumed lazily, one upload per client, from clients
    0..client_count-1. Sums are folded in canonical (client id, record
    position) order: an upload whose client id is the next one due is added
    at once, one that arrives early is parked until every lower id has been
    added. Any arrival order therefore gives bit-identical sums, and in-order
    arrival holds no client gram beyond the one being added. A duplicate or
    out-of-range client id, or a missing one, is a ProtocolError, and so is
    a NaN or infinite label frequency or sum. All uploads must share one
    task and all records one mapped dimension; either every record carries a
    gram (full mode) or none does (efficient mode), and the first sets which.
    """
    if client_count < 1:
        raise ProtocolError(
            f"spatial aggregation needs at least one client, got {client_count}"
        )
    c_t = len(task_classes)
    task_id = m = None
    corr = gram = None
    records: list[SpatialStatistics] = []
    parked: dict[int, object] = {}
    due = 0  # the client id to fold next
    for payload in payloads:
        if not payload.records:
            raise ProtocolError("payload contains no statistics records")
        if m is None:
            # The first upload sets the stage's task, dimension and mode.
            task_id = payload.task_id
            m = payload.records[0].feature_dim
            corr = np.zeros((m, c_t))
            gram = None if payload.records[0].gram is None else np.zeros(m * (m + 1) // 2)
        client_id = payload.client_id
        if payload.task_id != task_id:
            raise ProtocolError(f"mixed task ids {task_id} and {payload.task_id}")
        for rec in payload.records:
            if rec.feature_dim != m:
                raise ProtocolError(f"mixed mapped dimensions {m} and {rec.feature_dim}")
            if rec.corr.shape[1] != c_t:
                raise ProtocolError(
                    f"record has {rec.corr.shape[1]} class columns, task has {c_t}"
                )
            if (rec.gram is None) != (gram is None):
                raise ProtocolError("uploads mix full-mode and efficient-mode records")
            if not np.isfinite(rec.label_freq).all():
                raise ProtocolError(
                    f"client {client_id} uploaded non-finite label frequencies"
                )
        if not 0 <= client_id < client_count:
            raise ProtocolError(
                f"client id {client_id} is out of range for {client_count} clients"
            )
        if client_id < due or client_id in parked:
            raise ProtocolError(f"duplicate upload from client {client_id}")
        parked[client_id] = payload
        # Only ``parked`` refers to the upload now, so folding frees it.
        del payload, rec
        while due in parked:
            _fold(parked.pop(due), corr, gram, records)
            due += 1

    if due < client_count:
        raise ProtocolError(
            f"missing upload from client {due}; expected clients 0..{client_count - 1}"
        )
    # A NaN or infinite entry in any upload survives the sum, so checking
    # the sums once covers every upload. max/min propagate NaN and keep inf,
    # so the gram check makes no temporary.
    if not np.isfinite(corr).all():
        raise ProtocolError("summed uploads have non-finite corr entries")
    if gram is not None:
        if not (np.isfinite(gram.max()) and np.isfinite(gram.min())):
            raise ProtocolError("summed uploads have non-finite gram entries")
    return StageAggregate(gram=gram, corr=corr, records=tuple(records))


def _fold(payload, corr: np.ndarray, gram: np.ndarray | None, records: list) -> None:
    """Add one client's records to the running sums in upload order.

    Full mode adds each packed gram into the packed sum ``gram``. Efficient
    mode keeps the first-order records for the gram estimator instead.
    """
    for rec in payload.records:
        corr += rec.corr
        if gram is None:
            records.append(rec)
        else:
            gram += rec.gram


def estimate_gram(
    records: Sequence[SpatialStatistics], task_classes: Sequence[int]
) -> np.ndarray:
    """Unbiased plug-in estimate of the task gram from first-order records.

    Per class i with contributing records (label_freq[i] > 0) indexed by k:

        G_i = (n_i - 1)/(K_i - 1) * sum_k c_k c_k^T / n_k
            - (n_i - K_i)/(n_i (K_i - 1)) * (sum_k c_k)(sum_k c_k)^T

    where n_i = sum_k n_k and K_i counts the contributing records; n_k is
    floored at MIN_COUNT. Classes absent everywhere contribute nothing; a
    class held by a single record cannot be estimated and raises.

    Every class's terms are summed by one product G = L U^T. U stacks, per
    class, its contributing columns c_k and their total t_i = sum_k c_k; L
    stacks the matching (c_k / n_k) * (n_i - 1)/(K_i - 1) and
    -(n_i - K_i)/(n_i (K_i - 1)) * t_i. Dividing by n_k before applying the
    class scalar keeps integer-exact data exact: c_k / n_k is then the
    exact class mean, where a premultiplied (n_i - 1)/((K_i - 1) n_k) or a
    square-root weighting rounds.

    The result is G's packed upper triangle, symmetric by construction. It
    is written one strip of ``_SYMMETRY_BLOCK`` rows at a time: rows i..i+b
    of L U^T against columns i..M, so no M x M array is made.
    """
    records = list(records)
    if not records:
        raise ProtocolError("gram estimation needs at least one record")
    m = records[0].feature_dim
    for rec in records:
        if rec.feature_dim != m or rec.corr.shape[1] != len(task_classes):
            raise ProtocolError(
                f"record shape {rec.corr.shape} does not match "
                f"({m}, {len(task_classes)})"
            )
    counts = np.array([rec.label_freq for rec in records], dtype=np.float64)
    left: list[np.ndarray] = []
    right: list[np.ndarray] = []
    for i, cls in enumerate(task_classes):
        contributing = counts[:, i] > 0.0
        k_i = int(contributing.sum())
        if k_i == 0:
            continue
        if k_i < 2:
            raise EstimationError(
                f"class {cls} is held by a single record; gram estimation "
                f"needs at least 2 (use dummy clients)"
            )
        # Class i's column of each contributing record, one row each.
        cols = np.array([rec.corr[:, i] for rec, keep in zip(records, contributing) if keep])
        n_k = np.maximum(counts[contributing, i], MIN_COUNT)
        n_i = float(n_k.sum())
        total = cols.sum(axis=0)
        left.append((cols / n_k[:, None]) * ((n_i - 1.0) / (k_i - 1.0)))
        left.append(-((n_i - k_i) / (n_i * (k_i - 1.0))) * total[None, :])
        right.append(cols)
        right.append(total[None, :])
    packed = np.zeros(m * (m + 1) // 2)
    if not left:
        return packed
    lt, u = np.concatenate(left).T, np.concatenate(right)
    start = 0  # packed offset of the strip's first row
    for i in range(0, m, _SYMMETRY_BLOCK):
        strip = lt[i : i + _SYMMETRY_BLOCK] @ u[:, i:]
        # Row i + r of the triangle is the strip row from its diagonal on.
        for r, row in enumerate(strip):
            packed[start : start + m - i - r] = row[r:]
            start += m - i - r
    return packed


def temporal_aggregate(
    state: TemporalState,
    gram_new: np.ndarray,
    corr_new: np.ndarray,
    task_classes: Sequence[int],
) -> TemporalState:
    """Fold one task's aggregated statistics into the running state.

    ``gram_new`` is the stage gram's packed upper triangle; the packed
    grams are summed, correlation columns are appended, class ids extend
    in task order. Classes must be disjoint across stages.
    """
    gram_new = np.asarray(gram_new, dtype=np.float64)
    corr_new = np.asarray(corr_new, dtype=np.float64)
    m = state.corr_acc.shape[0]
    packed = m * (m + 1) // 2
    if gram_new.shape != (packed,):
        raise ProtocolError(
            f"stage gram shape {gram_new.shape} is not the packed triangle "
            f"({packed},) of dim {m}"
        )
    if corr_new.shape != (m, len(task_classes)):
        raise ProtocolError(
            f"stage corr shape {corr_new.shape} does not match "
            f"({m}, {len(task_classes)})"
        )
    overlap = set(task_classes) & set(state.class_ids)
    if overlap:
        raise ProtocolError(f"classes {sorted(overlap)} already seen in earlier stages")
    if len(set(task_classes)) != len(task_classes):
        raise ProtocolError(f"task class list has duplicates: {list(task_classes)}")
    return TemporalState(
        gram_acc=state.gram_acc + gram_new,
        corr_acc=np.hstack([state.corr_acc, corr_new]),
        class_ids=state.class_ids + tuple(int(c) for c in task_classes),
    )


def update_classifier(state: TemporalState, gamma: float) -> ClassifierWeights:
    """Closed-form classifier update W = (G_acc + gamma I)^-1 C_acc.

    The packed state goes to the solve as it is; nothing here unpacks it.
    """
    if not state.class_ids:
        raise ProtocolError("cannot update the classifier from an empty state")
    return ridge_solve(state.gram_acc, state.corr_acc, gamma, class_ids=state.class_ids)

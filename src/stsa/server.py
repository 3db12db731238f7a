"""Server-side aggregation: spatial, temporal, gram estimation, classifier.

The server keeps one gram, the state's ``gram_acc``: the sum over clients
and the sum over stages are one sum into it. Spatial aggregation checks each
upload in client order, rejects one out of order and adds a full-mode gram
straight into the state. When clients upload first-order records only, the
server adds an unbiased estimate of the task gram, made from the records'
correlation columns and label frequencies, instead. Temporal aggregation
appends the task's correlation columns and class ids. So one stage is
folded into one ``TemporalState``, which every step updates in place; the
runner's ``_fold_stage`` is the one place that chains the three steps.

Every gram on the server is one triangle in RFP, LAPACK's rectangular full
packed format (see ``stsa.core``), as clients upload it. Uploads add into
the state elementwise, the estimate adds into it strip by strip, and the
solve factorizes a copy of it in the same format.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .core import ClassifierWeights, SpatialStatistics, _rfp_strips, ridge_solve
from .errors import EstimationError, ProtocolError

#: Contributing noised label frequencies are floored here before division.
MIN_COUNT = 1e-6


@dataclass
class TemporalState:
    """Accumulated statistics over the stages folded in so far.

    ``gram_acc`` is the summed (exact or estimated) gram in RFP, as uploaded,
    ``corr_acc`` the column-concatenated correlations, whose row count is
    the mapped dimension M, ``class_ids`` the concatenated task
    class lists in task order; the initial state has no class ids. A stage
    is folded into the state in place: its grams are added into the one
    ``gram_acc`` array, and ``temporal_aggregate`` extends the columns and
    class ids. A failed fold may leave part of a stage in the state; the
    run stops on any error. A run holds one state, and with
    ``oracle_check`` a second, the oracle's.
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
    payloads: Iterable, task_classes: Sequence[int], client_count: int, gram_acc: np.ndarray
) -> tuple[np.ndarray, list[SpatialStatistics]]:
    """Sum one task's uploads across clients, folding each in as it arrives.

    ``payloads`` is consumed lazily and must yield one upload per client in
    client order, 0..client_count-1. Each upload is folded in once it passes
    its checks, its records in upload order, and let go of before the next
    is pulled, so no client gram outlives its fold: a full-mode gram is
    added straight into the state's ``gram_acc``. A duplicate, missing,
    out-of-order or out-of-range client id is a ProtocolError (an upload
    ahead of the id due names that id as missing), and so is a NaN or
    infinite label frequency or sum. All uploads must share one task and all
    records one mapped dimension, at least 1, which ``gram_acc`` packs, or
    nothing is added; either every record carries a gram (full mode) or
    none does (efficient mode), and the first sets which.

    Each upload is also checked against the upload contract, at O(c) cost
    per record, and a breach is a ProtocolError: the client id is an
    integer and not a bool; grams and corr are float64; a full-mode upload
    has exactly one record; label counts are non-negative integers, except
    that efficient-mode counts may be noised into any finite floats.

    Returns ``(corr, records)``: the task's summed correlation columns, and
    the efficient-mode first-order records in upload order, which is
    (client id, record position) order, for the gram estimator; ``records``
    is empty in full mode, whose grams went into ``gram_acc``.
    """
    if client_count < 1:
        raise ProtocolError(
            f"spatial aggregation needs at least one client, got {client_count}"
        )
    c_t = len(task_classes)
    task_id = m = full = corr = None
    records: list[SpatialStatistics] = []
    due = 0  # the client id to fold next
    for payload in payloads:
        if not payload.records:
            raise ProtocolError("payload contains no statistics records")
        if m is None:
            # The first upload sets the stage's task, dimension and mode.
            task_id = payload.task_id
            m = payload.records[0].feature_dim
            if m < 1:
                raise ProtocolError(f"client {payload.client_id!r} uploaded feature dimension 0")
            if gram_acc.shape != (m * (m + 1) // 2,):
                raise ProtocolError(
                    f"client {payload.client_id!r} uploaded feature dimension {m}, "
                    f"which the state's gram of shape {gram_acc.shape} does not pack"
                )
            corr = np.zeros((m, c_t))
            full = payload.records[0].gram is not None
        client_id = payload.client_id
        if not isinstance(client_id, (int, np.integer)) or isinstance(client_id, bool):
            raise ProtocolError(f"client id {client_id!r} is not an integer")
        if payload.task_id != task_id:
            raise ProtocolError(f"mixed task ids {task_id} and {payload.task_id}")
        for rec in payload.records:
            if rec.feature_dim != m:
                raise ProtocolError(f"mixed mapped dimensions {m} and {rec.feature_dim}")
            if rec.corr.shape[1] != c_t:
                raise ProtocolError(
                    f"record has {rec.corr.shape[1]} class columns, task has {c_t}"
                )
            if (rec.gram is not None) != full:
                raise ProtocolError("uploads mix full-mode and efficient-mode records")
            for name, arr in (("gram", rec.gram), ("corr", rec.corr)):
                if arr is not None and arr.dtype != np.float64:
                    raise ProtocolError(
                        f"client {client_id} uploaded a {name} of dtype {arr.dtype}; "
                        f"it must be float64"
                    )
            kind = rec.label_freq.dtype.kind
            if kind in "iu":
                if (rec.label_freq < 0).any():
                    raise ProtocolError(f"client {client_id} uploaded a negative label count")
            elif kind != "f" or full:
                raise ProtocolError(
                    f"client {client_id} uploaded {rec.label_freq.dtype} label counts; "
                    f"counts are integers, or floats once noised in efficient mode"
                )
            if not np.isfinite(rec.label_freq).all():
                raise ProtocolError(
                    f"client {client_id} uploaded non-finite label frequencies"
                )
        if full and len(payload.records) != 1:
            raise ProtocolError(
                f"full-mode upload from client {client_id} has "
                f"{len(payload.records)} records; full mode sends exactly one"
            )
        if not 0 <= client_id < client_count:
            raise ProtocolError(
                f"client id {client_id} is out of range for {client_count} clients"
            )
        if client_id < due:
            raise ProtocolError(f"duplicate upload from client {client_id}")
        if client_id > due:
            raise ProtocolError(
                f"missing upload from client {due}; expected clients 0..{client_count - 1}"
            )
        # Full mode adds each RFP gram into the state; efficient mode
        # keeps the first-order records for the gram estimator instead.
        for rec in payload.records:
            corr += rec.corr
            if full:
                gram_acc += rec.gram
            else:
                records.append(rec)
        due += 1
        # Let go of the upload before pulling the next one.
        del payload, rec

    if due < client_count:
        raise ProtocolError(
            f"missing upload from client {due}; expected clients 0..{client_count - 1}"
        )
    # A NaN or infinite entry in any upload survives the sum, and the state
    # was finite, so checking the sums once covers every upload. max/min
    # propagate NaN and keep inf, so the gram check makes no temporary.
    if not np.isfinite(corr).all():
        raise ProtocolError("summed uploads have non-finite corr entries")
    if full and not (np.isfinite(gram_acc.max()) and np.isfinite(gram_acc.min())):
        raise ProtocolError("summed uploads have non-finite gram entries")
    return corr, records


def estimate_gram(
    records: Sequence[SpatialStatistics], task_classes: Sequence[int], out: np.ndarray
) -> None:
    """Add the unbiased plug-in estimate of the task gram into ``out``.

    Per class i with contributing records (label_freq[i] > 0) indexed by k:

        G_i = (n_i - 1)/(K_i - 1) * sum_k c_k c_k^T / n_k
            - (n_i - K_i)/(n_i (K_i - 1)) * (sum_k c_k)(sum_k c_k)^T

    where n_i = sum_k n_k and K_i counts the contributing records; n_k is
    floored at MIN_COUNT. Classes absent everywhere contribute nothing; a
    class held by a single record cannot be estimated and raises.

    Every class's terms are summed by one product G = L^T U. U has one row
    per contributing column c_k and one per class total t_i = sum_k c_k;
    row j of L is row j of U divided by its divisor (n_k for a column, 1
    for a total) and multiplied by its class scalar ((n_i - 1)/(K_i - 1)
    for a column, -(n_i - K_i)/(n_i (K_i - 1)) for a total). Dividing by
    n_k before applying the class scalar keeps integer-exact data exact:
    c_k / n_k is then the exact class mean, where a premultiplied
    (n_i - 1)/((K_i - 1) n_k) or a square-root weighting rounds.

    G is added into ``out``, an RFP gram such as the state's, and each
    entry (i, j) with i <= j is taken as L[:, i] . U[:, j], so G is
    symmetric by construction. U is the one R x M array made, with R its
    row count; per strip of G's rows i..i+b, L's columns i..i+b times U's
    columns i..M are added into the strip's upper triangle, so no M x M
    array is made.
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
    contributing = counts > 0.0
    held = contributing.sum(axis=0)
    for cls, k_i in zip(task_classes, held):
        if k_i == 1:
            raise EstimationError(
                f"class {cls} is held by a single record; gram estimation "
                f"needs at least 2 (use dummy clients)"
            )
    rows = int(held.sum() + np.count_nonzero(held))
    u = np.empty((rows, m))
    divisor = np.empty(rows)
    scale = np.empty(rows)
    top = 0  # U's first row for the class; its total goes in row ``end``
    for i, k_i in enumerate(held):
        if k_i == 0:
            continue
        end = top + k_i
        cols = u[top:end]
        for dst, rec in zip(cols, compress(records, contributing[:, i])):
            dst[:] = rec.corr[:, i]
        n_k = np.maximum(counts[contributing[:, i], i], MIN_COUNT)
        n_i = float(n_k.sum())
        u[end] = cols.sum(axis=0)
        divisor[top:end] = n_k
        divisor[end] = 1.0
        scale[top:end] = (n_i - 1.0) / (k_i - 1.0)
        scale[end] = -((n_i - k_i) / (n_i * (k_i - 1.0)))
        top = end + 1
    for i, b, strip, upper in _rfp_strips(out, m):
        left = u[:, i : i + b] / divisor[:, None]
        left *= scale[:, None]
        np.add(strip, left.T @ u[:, i:], out=strip, where=upper)


def temporal_aggregate(
    state: TemporalState, corr_new: np.ndarray, task_classes: Sequence[int]
) -> None:
    """Fold one task's correlation columns and class ids into ``state`` in place.

    The task's gram is already in ``state.gram_acc``. Correlation columns
    are appended and class ids extend in task order. Classes must be
    disjoint across stages; a rejected fold changes nothing here, though
    the stage's gram was already added, and the run stops on any error.
    """
    corr_new = np.asarray(corr_new, dtype=np.float64)
    m = state.corr_acc.shape[0]
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
    state.corr_acc = np.hstack([state.corr_acc, corr_new])
    state.class_ids += tuple(int(c) for c in task_classes)


def update_classifier(state: TemporalState, gamma: float) -> ClassifierWeights:
    """Closed-form classifier update W = (G_acc + gamma I)^-1 C_acc.

    The RFP state goes to the solve as it is; nothing here unpacks it.
    """
    if not state.class_ids:
        raise ProtocolError("cannot update the classifier from an empty state")
    return ridge_solve(state.gram_acc, state.corr_acc, gamma, class_ids=state.class_ids)

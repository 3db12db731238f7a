"""Client-side payload extraction: full and communication-efficient uploads.

A client holds one raw-feature shard per task. In full mode it uploads one
second-order record {G, C, n}; in efficient mode it splits the shard into
dummy clients and uploads first-order records {C, n} only. A full-mode G
is one triangle in RFP, LAPACK's rectangular full packed format (see
``stsa.core``); the efficient path never forms one. An upload carries no
size of its own: what it costs to send follows from its records.

Every record, and the oracle's pooled statistics too, comes from one path,
``mapped_statistics``: it maps raw rows at most ceil(M/2) at a time and sums
their statistics in place, so a client never holds its whole mapped shard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import RandomMap, SpatialStatistics, apply_map, dtpttf, local_statistics
from .errors import ConfigurationError, DomainError
from .prng import ChaChaStream

MODE_FULL = "full"
MODE_EFFICIENT = "efficient"


@dataclass(frozen=True)
class ClientShard:
    """One client's private raw-feature data for one task."""

    client_id: int
    task_id: int
    features: np.ndarray  # (n, d) raw features
    labels: np.ndarray  # (n,) global class ids

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise DomainError(
                f"shard features {self.features.shape} and labels "
                f"{self.labels.shape} are inconsistent"
            )

    @property
    def size(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class UploadPayload:
    """What client ``client_id`` transmits for task ``task_id``: a header and records.

    The records are the whole upload. Their shape is its mode, and their
    count and shapes are its size, which the runner's ledger measures with
    ``comm_bytes``. Full mode: exactly one record, gram present. Efficient
    mode: one record per dummy client, gram absent everywhere, records
    disjointly covering the shard; record j is dummy client j's.
    """

    client_id: int
    task_id: int
    records: tuple[SpatialStatistics, ...]


def mapped_statistics(
    rmap: RandomMap,
    raw: np.ndarray,
    labels: np.ndarray,
    task_classes: Sequence[int],
    *,
    include_gram: bool = True,
) -> SpatialStatistics:
    """The statistics {G, C, n} of raw rows ``raw``, mapped by ``rmap``.

    The rows are mapped and pooled in consecutive blocks of at most
    B = ceil(M/2) rows, M the mapped dimension, so a mapped block (B x M)
    never outweighs one RFP gram (M(M+1)/2 entries). Each block after the
    first is added into the first one's statistics in place (see
    ``local_statistics``'s ``into``), so one set of sums is held. Rows that
    fit one block, none included, are exactly one
    ``local_statistics(apply_map(rmap, raw), labels, task_classes)`` call.
    """
    size = -(-rmap.output_dim // 2)
    stats = None
    for start in range(0, max(len(labels), 1), size):
        block = slice(start, start + size)
        # The mapped block is an argument only, so it goes when the call returns.
        stats = local_statistics(
            apply_map(rmap, raw[block]), labels[block], task_classes,
            include_gram=include_gram, into=stats,
        )
    return stats


def extract_payload(
    shard: ClientShard,
    rmap: RandomMap,
    task_classes: Sequence[int],
    mode: str = MODE_FULL,
    k_d: int = 1,
    seed: int = 0,
) -> UploadPayload:
    """Compute the shard's upload records from its raw rows.

    Full mode computes one record {G, C, n} over the whole shard, G in RFP.
    Efficient mode splits the shard into at most min(k_d, shard size) dummy
    clients (an empty shard yields a single all-zero record), computes
    first-order statistics per sub-shard, and never materializes a gram
    matrix. The split deals a seeded shuffle of the rows round-robin into
    sorted, disjoint cells. Either way each record is one
    ``mapped_statistics`` over its raw rows, so no more than ceil(M/2)
    mapped rows are held at once, never the whole mapped shard.
    """
    if mode not in (MODE_FULL, MODE_EFFICIENT):
        raise ConfigurationError(f"unknown payload mode {mode!r}")
    if k_d < 1:
        raise ConfigurationError(f"dummy client count must be >= 1, got {k_d}")
    full = mode == MODE_FULL
    if full:
        cells = [slice(None)]  # the whole shard, as a view
    else:
        # A shard smaller than k_d caps the split at one sample per dummy client.
        effective = max(1, min(k_d, shard.size))
        order = ChaChaStream(seed).permutation(shard.size)
        cells = [np.sort(order[j::effective]) for j in range(effective)]
    records = tuple(
        mapped_statistics(
            rmap, shard.features[cell], shard.labels[cell], task_classes, include_gram=full
        )
        for cell in cells
    )
    return UploadPayload(client_id=shard.client_id, task_id=shard.task_id, records=records)


def add_noise(payload: UploadPayload, q: float, s: float, seed: int) -> UploadPayload:
    """Perturb every transmitted entry by q * N(0, s^2).

    A record with a gram (full mode) has G and C noised, in that order; its
    label counts are not transmitted and stay exact. G takes M(M+1)/2 draws
    for its upper triangle in row-major order, laid into its RFP slots by
    one ``dtpttf``. Each stored entry stands for both (i, j) and (j, i) of
    the symmetric gram the solve uses: the Analyze-Gauss construction, with variance q^2 s^2
    on every entry of that gram. A record without one (efficient mode) has C and a
    real-valued copy of the label frequencies noised. q = 0 or s = 0 returns
    the payload unchanged.
    """
    if not (0.0 <= q < np.inf and 0.0 <= s < np.inf):
        raise DomainError(f"noise parameters must be finite and non-negative, got q={q}, s={s}")
    if q == 0.0 or s == 0.0:
        return payload
    stream = ChaChaStream(seed)

    def perturb(arr: np.ndarray, gram_dim: int | None = None) -> np.ndarray:
        noised = q * s * stream.standard_normal(arr.size)
        if gram_dim is not None:
            noised, _ = dtpttf(gram_dim, noised, transr="N", uplo="L")
        noised += arr.ravel()  # counts widen to float64 here
        return noised.reshape(arr.shape)

    # Keywords are evaluated in order, so each record draws G, C or C, n.
    records = tuple(
        replace(
            rec,
            gram=None if rec.gram is None else perturb(rec.gram, rec.feature_dim),
            corr=perturb(rec.corr),
            label_freq=perturb(rec.label_freq) if rec.gram is None else rec.label_freq,
        )
        for rec in payload.records
    )
    return replace(payload, records=records)

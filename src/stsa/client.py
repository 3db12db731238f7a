"""Client-side payload extraction: full and communication-efficient uploads.

A client holds one raw-feature shard per task. In full mode it uploads one
second-order record {G, C, n}; in efficient mode it splits the shard into
dummy clients and uploads first-order records {C, n} only. Gram matrices are
never formed on the efficient path, so the byte accounting reflects what is
actually transmitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import RandomMap, SpatialStatistics, apply_map, local_statistics
from .errors import ConfigurationError, DomainError
from .metrics import DEFAULT_ELEM_BYTES, comm_bytes
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
    """What client ``client_id`` transmits for task ``task_id``, named once.

    The records' shape is the upload's mode. Full mode: exactly one record,
    gram present. Efficient mode: one record per dummy client, gram absent
    everywhere, records disjointly covering the shard; record j is dummy client j's.
    """

    client_id: int
    task_id: int
    records: tuple[SpatialStatistics, ...]
    byte_size: int


def _partition_indices(
    n: int, k_d: int, stream: ChaChaStream, labels: np.ndarray, stratified: bool
) -> list[np.ndarray]:
    """Seeded shuffle of range(n) dealt round-robin into k_d sorted cells.

    Cell sizes differ by at most one and the cells disjointly cover range(n).
    Stratified splits shuffle within each class and deal the classes one
    after another, so every class is also balanced across the cells.
    """
    if stratified:
        shuffled = [
            idx[stream.permutation(idx.size)]
            for idx in (np.flatnonzero(labels == cls) for cls in np.unique(labels))
        ]
        order = np.concatenate(shuffled) if shuffled else np.empty(0, dtype=np.int64)
    else:
        order = stream.permutation(n)
    return [np.sort(order[j::k_d]) for j in range(k_d)]


def extract_payload(
    shard: ClientShard,
    rmap: RandomMap,
    task_classes: Sequence[int],
    mode: str = MODE_FULL,
    k_d: int = 1,
    seed: int = 0,
    stratified: bool = False,
    elem_bytes: int = DEFAULT_ELEM_BYTES,
) -> UploadPayload:
    """Map the shard and compute its upload records.

    Efficient mode splits into at most min(k_d, shard size) dummy clients
    (an empty shard yields a single all-zero record), computes first-order
    statistics per sub-shard, and never materializes a gram matrix.
    """
    c_t = len(task_classes)
    if mode == MODE_FULL:
        feat = apply_map(rmap, shard.features)
        stats = local_statistics(feat, shard.labels, task_classes)
        size = comm_bytes(rmap.output_dim, c_t, 1, MODE_FULL, elem_bytes)
        return UploadPayload(
            client_id=shard.client_id, task_id=shard.task_id, records=(stats,), byte_size=size
        )

    if mode != MODE_EFFICIENT:
        raise ConfigurationError(f"unknown payload mode {mode!r}")
    if k_d < 1:
        raise ConfigurationError(f"dummy client count must be >= 1, got {k_d}")
    # A shard smaller than k_d caps the split at one sample per dummy client.
    effective = max(1, min(k_d, shard.size))
    feat = apply_map(rmap, shard.features)
    cells = _partition_indices(
        shard.size, effective, ChaChaStream(seed), shard.labels, stratified
    )
    records = tuple(
        local_statistics(feat[cell], shard.labels[cell], task_classes, include_gram=False)
        for cell in cells
    )
    size = comm_bytes(rmap.output_dim, c_t, len(records), MODE_EFFICIENT, elem_bytes)
    return UploadPayload(
        client_id=shard.client_id, task_id=shard.task_id, records=records, byte_size=size
    )


def add_noise(payload: UploadPayload, q: float, s: float, seed: int) -> UploadPayload:
    """Perturb every transmitted array entrywise by q * N(0, s^2).

    A record with a gram (full mode) has G and C noised; a record without one
    (efficient mode) has C and a real-valued copy of the label frequencies
    noised. q = 0 or s = 0 returns the payload unchanged.
    """
    if not (0.0 <= q < np.inf and 0.0 <= s < np.inf):
        raise DomainError(f"noise parameters must be finite and non-negative, got q={q}, s={s}")
    if q == 0.0 or s == 0.0:
        return payload
    stream = ChaChaStream(seed)

    def perturb(arr: np.ndarray) -> np.ndarray:
        flat = q * s * stream.standard_normal(arr.size)
        return arr.astype(np.float64) + flat.reshape(arr.shape)

    noised = []
    for rec in payload.records:
        if rec.gram is not None:
            noised.append(replace(rec, gram=perturb(rec.gram), corr=perturb(rec.corr)))
        else:
            noised.append(
                replace(rec, corr=perturb(rec.corr), label_freq=perturb(rec.label_freq))
            )
    return replace(payload, records=tuple(noised))

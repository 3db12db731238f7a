"""Class-incremental evaluation metrics and communication accounting.

The accuracy grid A[t][tau] holds the accuracy on task tau measured after
stage t, so only the lower triangle (tau <= t) is defined. The grid is
built whole, and every entry must lie in [0, 1]; NaN fails that check at
construction, so the metric functions never see an undefined entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError


@dataclass(frozen=True)
class AccuracyMatrix:
    """Lower-triangular accuracy grid; rows[t-1][tau-1] = A[t][tau] in [0, 1]."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise DomainError("accuracy matrix needs at least one stage")
        for t, row in enumerate(self.rows, start=1):
            if len(row) != t:
                raise DomainError(
                    f"accuracy row {t} must have {t} entries, got {len(row)}"
                )
            for a in row:
                if not 0.0 <= a <= 1.0:
                    raise DomainError(f"accuracy {a} outside [0, 1]")

    @property
    def stages(self) -> int:
        return len(self.rows)


def avg_incremental_accuracy(acc: AccuracyMatrix) -> float:
    """Sum over stages of the stage's mean seen-task accuracy.

    This is the literal running-average sum (range [0, T]); divide by the
    stage count for the normalized variant reported alongside it.
    """
    total = 0.0
    for t, row in enumerate(acc.rows, start=1):
        total += sum(row) / t
    return total


def final_average_accuracy(acc: AccuracyMatrix) -> float:
    """Mean accuracy over all tasks after the final stage."""
    last = acc.rows[-1]
    return sum(last) / len(last)


def average_forgetting(acc: AccuracyMatrix) -> float:
    """Mean drop from each task's best pre-final accuracy to its final one.

    The maximum for task tau ranges over stages tau..T-1 (earlier entries are
    undefined). Negative values indicate backward transfer. Undefined for a
    single stage.
    """
    T = acc.stages
    if T < 2:
        raise DomainError("average forgetting is undefined for a single stage")
    total = 0.0
    for tau in range(1, T):
        best = max(acc.rows[t - 1][tau - 1] for t in range(tau, T))
        total += best - acc.rows[T - 1][tau - 1]
    return total / (T - 1)


def comm_bytes(m: int, c_t: int, k_d: int, mode: str, elem_bytes: int) -> int:
    """Upload size in bytes for one client at one stage, as it is sent.

    Full mode ships {G, C}, G as one triangle in RFP:
    (M(M+1)/2 + c_t M) elements. Efficient mode ships {C, n} per dummy
    client: (M + 1) x c_t x K_D elements.
    """
    return _upload_bytes(m, c_t, k_d, mode, elem_bytes, m * (m + 1) // 2)


def paper_comm_bytes(m: int, c_t: int, k_d: int, mode: str, elem_bytes: int) -> int:
    """``comm_bytes`` as the paper counts it, a full-mode G as all M x M elements.

    Full mode is (M + c_t) x M elements; efficient mode is as ``comm_bytes``.
    This is the figure to hold against the paper's published totals.
    """
    return _upload_bytes(m, c_t, k_d, mode, elem_bytes, m * m)


def _upload_bytes(
    m: int, c_t: int, k_d: int, mode: str, elem_bytes: int, gram_elements: int
) -> int:
    if m < 1 or k_d < 1 or elem_bytes < 1 or c_t < 0:
        raise DomainError(
            f"invalid accounting arguments M={m}, c_t={c_t}, K_D={k_d}, "
            f"elem_bytes={elem_bytes}"
        )
    if mode == "full":
        return (gram_elements + c_t * m) * elem_bytes
    if mode == "efficient":
        return (m + 1) * c_t * k_d * elem_bytes
    raise DomainError(f"unknown mode {mode!r}")


@dataclass
class CommLedger:
    """Per-(stage, client) upload byte counts for one run."""

    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def add(self, stage: int, client_id: int, nbytes: int):
        if nbytes < 0:
            raise DomainError(f"negative byte count {nbytes}")
        self.entries[(stage, client_id)] = self.entries.get((stage, client_id), 0) + nbytes

    @property
    def total(self) -> int:
        return sum(self.entries.values())

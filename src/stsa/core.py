"""Numerical kernel: seeded random feature map, local statistics, ridge solve.

Feature matrices are plain float64 ndarrays of shape (n, M). All operations
here are pure functions of their arguments; repeated calls with equal
arguments return bit-identical results, which is what lets clients and the
server regenerate the shared random map from a seed instead of shipping it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, NumericalError
from .prng import ChaChaStream

SOLVE_RESIDUAL_BOUND = 1e-8

# Jitter escalation ladder for the SPD factorization, mildest first.
_JITTER_EXPONENTS = (6, 4, 2)

# Rows per block of the symmetry check.
_SYMMETRY_BLOCK = 256


@dataclass(frozen=True)
class RandomMap:
    """Shared feature-lifting map: x -> relu(x @ matrix), dim d -> M.

    The matrix is materialized lazily from the seed, so the descriptor
    (seed, input_dim, output_dim, enabled, scale) is all that ever needs to
    travel between parties. With ``enabled=False`` the map is the identity
    (output_dim == input_dim) and only the ReLU clamp applies.
    """

    seed: int
    input_dim: int
    output_dim: int
    enabled: bool = True
    scale: str = "unit"  # "unit": N(0,1) entries; "inv_dim": N(0, 1/d)

    @cached_property
    def matrix(self) -> np.ndarray:
        if not self.enabled:
            return np.eye(self.input_dim)
        stream = ChaChaStream(self.seed)
        entries = stream.standard_normal(self.input_dim * self.output_dim)
        matrix = entries.reshape(self.input_dim, self.output_dim)
        if self.scale == "inv_dim":
            matrix = matrix / np.sqrt(self.input_dim)
        return matrix


@dataclass(frozen=True)
class SpatialStatistics:
    """One shard's statistics {G, C, n} for one task; the upload names its sender.

    ``gram`` is X^T X (M, M) and is absent in communication-efficient mode;
    ``corr`` is X^T Y (M, c_t) with Y one-hot over the task's class list;
    ``label_freq`` holds per-class sample counts (exact int64 normally,
    float64 once privacy noise has been applied).
    """

    gram: np.ndarray | None
    corr: np.ndarray
    label_freq: np.ndarray

    def __post_init__(self):
        if self.corr.ndim != 2:
            raise DimensionError(f"corr must be 2-D, got shape {self.corr.shape}")
        if self.label_freq.shape != (self.corr.shape[1],):
            raise DimensionError(
                f"label_freq length {self.label_freq.shape} does not match "
                f"corr columns {self.corr.shape[1]}"
            )
        if self.gram is not None:
            m = self.corr.shape[0]
            if self.gram.shape != (m, m):
                raise DimensionError(
                    f"gram shape {self.gram.shape} does not match feature dim {m}"
                )

    @property
    def feature_dim(self) -> int:
        return self.corr.shape[0]


@dataclass(frozen=True)
class ClassifierWeights:
    """Closed-form classifier: column j of ``weights`` scores class_ids[j]."""

    weights: np.ndarray
    class_ids: tuple[int, ...]

    def __post_init__(self):
        if self.weights.ndim != 2 or self.weights.shape[1] != len(self.class_ids):
            raise DimensionError(
                f"weights shape {self.weights.shape} does not match "
                f"{len(self.class_ids)} class ids"
            )


def make_random_map(
    seed: int, d: int, m: int, enabled: bool = True, scale: str = "unit"
) -> RandomMap:
    """Build the shared random map descriptor.

    Entries are i.i.d. standard normal from the ChaCha stream keyed by
    ``seed`` (variance 1/d with ``scale="inv_dim"``). Disabled maps are the
    identity and force ``m`` to ``d``.
    """
    if d < 1 or m < 1:
        raise DimensionError(f"map dimensions must be positive, got d={d}, M={m}")
    if scale not in ("unit", "inv_dim"):
        raise DomainError(f"unknown map scale {scale!r}")
    if not enabled:
        return RandomMap(seed=seed, input_dim=d, output_dim=d, enabled=False, scale=scale)
    if m < d:
        raise DimensionError(f"random mapping requires M >= d, got M={m} < d={d}")
    return RandomMap(seed=seed, input_dim=d, output_dim=m, enabled=True, scale=scale)


def apply_map(rmap: RandomMap, raw: np.ndarray) -> np.ndarray:
    """Lift raw features (n, d) to mapped features relu(raw @ matrix), (n, M)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise DimensionError(f"raw features must be 2-D, got shape {raw.shape}")
    if raw.shape[1] != rmap.input_dim:
        raise DimensionError(
            f"raw feature dim {raw.shape[1]} does not match map input dim {rmap.input_dim}"
        )
    # relu would turn -inf (or +inf times a negative weight) into a plausible
    # 0.0, so non-finite input is rejected before it is lifted.
    if not np.isfinite(raw).all():
        raise NumericalError("raw features have non-finite entries")
    return np.maximum(raw @ rmap.matrix, 0.0)


def _label_columns(labels: np.ndarray, class_list: list[int]) -> np.ndarray:
    """Column index of each label in the task's class order."""
    if not class_list:
        if labels.size:
            raise DomainError(f"label {int(labels[0])} is not in task classes []")
        return np.empty(0, dtype=np.int64)
    class_arr = np.asarray(class_list, dtype=np.int64)
    order = np.argsort(class_arr, kind="stable")
    sorted_classes = class_arr[order]
    pos = np.searchsorted(sorted_classes, labels)
    pos_clipped = np.minimum(pos, len(class_arr) - 1)
    bad = (pos >= len(class_arr)) | (sorted_classes[pos_clipped] != labels)
    if bad.any():
        offender = int(labels[np.flatnonzero(bad)[0]])
        raise DomainError(f"label {offender} is not in task classes {class_list}")
    return order[pos_clipped]


def local_statistics(
    feat: np.ndarray,
    labels: np.ndarray,
    task_classes: Sequence[int],
    *,
    include_gram: bool = True,
) -> SpatialStatistics:
    """Compute one shard's statistics from mapped features; they name no sender.

    G = X^T X, C = X^T Y with Y one-hot over ``task_classes`` in the given
    order, label_freq = per-class counts. A zero-row ``feat`` yields zero
    matrices. ``include_gram=False`` skips G entirely (it is never formed),
    which is the communication-efficient transmit path.
    """
    feat = np.asarray(feat, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if feat.ndim != 2:
        raise DimensionError(f"features must be 2-D, got shape {feat.shape}")
    if labels.shape != (feat.shape[0],):
        raise DimensionError(
            f"{labels.shape[0] if labels.ndim == 1 else labels.shape} labels "
            f"for {feat.shape[0]} feature rows"
        )
    class_list = list(task_classes)
    if len(set(class_list)) != len(class_list):
        raise DomainError(f"task class list has duplicates: {class_list}")

    m = feat.shape[1]
    c = len(class_list)
    cols = _label_columns(labels, class_list)
    onehot = np.zeros((feat.shape[0], c))
    onehot[np.arange(feat.shape[0]), cols] = 1.0

    gram = feat.T @ feat if include_gram else None
    corr = feat.T @ onehot
    freq = onehot.sum(axis=0).astype(np.int64)
    return SpatialStatistics(gram=gram, corr=corr, label_freq=freq)


def _max_asymmetry(G: np.ndarray) -> float:
    """max |G - G^T|, one row block at a time so no M x M temporary is made."""
    worst = 0.0
    for i in range(0, G.shape[0], _SYMMETRY_BLOCK):
        rows = slice(i, i + _SYMMETRY_BLOCK)
        diff = G[rows] - G[:, rows].T
        worst = max(worst, float(np.abs(diff, out=diff).max()))
    return worst


def ridge_solve(
    G: np.ndarray,
    C: np.ndarray,
    gamma: float,
    class_ids: Sequence[int] | None = None,
) -> ClassifierWeights:
    """Solve (G + gamma I) W = C by SPD factorization, never explicit inverse.

    A non-finite G or C, or a G that is not symmetric within tolerance, is
    rejected with a NumericalError before any factorization.

    One step of iterative refinement keeps the relative residual under
    SOLVE_RESIDUAL_BOUND. If the Cholesky factorization fails (indefinite
    estimated gram), gamma is escalated along the distinct levels of the
    jitter ladder gamma * (1 + 10^-k * ||G||_F / M) for k in (6, 4, 2).
    """
    G = np.asarray(G, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionError(f"gram must be square, got shape {G.shape}")
    if C.ndim != 2 or C.shape[0] != G.shape[0]:
        raise DimensionError(
            f"corr shape {C.shape} does not match gram shape {G.shape}"
        )
    if gamma < 0.0:
        raise DomainError(f"ridge coefficient must be >= 0, got {gamma}")
    # max/min propagate NaN and keep inf, so they check finiteness with no
    # temporary the size of G.
    g_max, g_min = G.max(), G.min()
    if not (np.isfinite(g_max) and np.isfinite(g_min)):
        raise NumericalError("gram matrix has non-finite entries")
    if not np.isfinite(C).all():
        raise NumericalError("corr matrix has non-finite entries")
    m = G.shape[0]
    scale = max(g_max, -g_min)
    if scale > 0.0 and _max_asymmetry(G) > 1e-9 * scale:
        raise NumericalError("gram matrix is not symmetric within tolerance")
    if class_ids is None:
        class_ids = range(C.shape[1])
    class_ids = tuple(int(c) for c in class_ids)

    frob = float(np.linalg.norm(G, "fro"))
    attempts = [float(gamma)]
    attempts += [gamma * (1.0 + 10.0**-k * frob / m) for k in _JITTER_EXPONENTS]
    # Every level is 0.0 at gamma = 0; a repeat would refactorize one matrix.
    attempts = list(dict.fromkeys(attempts))
    factor = None
    used_gamma = None
    diagonal = np.diag_indices(m)
    for g in attempts:
        # A Fortran-ordered copy is factorized in place; LAPACK would copy a
        # C-ordered one anyway. A failed attempt leaves it overwritten.
        system = np.array(G, order="F")
        system[diagonal] += g
        try:
            factor = scipy.linalg.cho_factor(
                system, lower=True, overwrite_a=True, check_finite=False
            )
        except scipy.linalg.LinAlgError:
            continue
        used_gamma = g
        break
    if factor is None:
        raise NumericalError(
            f"SPD factorization failed at every jitter level {attempts}",
            attempted_gammas=attempts,
        )

    weights = scipy.linalg.cho_solve(factor, C, check_finite=False)
    # One refinement pass; the factorization is reused so this is cheap.
    residual = C - (G @ weights + used_gamma * weights)
    weights = weights + scipy.linalg.cho_solve(factor, residual, check_finite=False)

    residual = C - (G @ weights + used_gamma * weights)
    c_norm = np.linalg.norm(C, "fro")
    r_norm = np.linalg.norm(residual, "fro")
    # Written so that a NaN residual or NaN C fails the gate too.
    if not r_norm <= SOLVE_RESIDUAL_BOUND * c_norm:
        raise NumericalError(
            f"solve residual {r_norm / c_norm:.3e} exceeds {SOLVE_RESIDUAL_BOUND:.0e}",
            attempted_gammas=attempts,
        )
    return ClassifierWeights(weights=weights, class_ids=class_ids)


def predict(w: ClassifierWeights, feat: np.ndarray) -> np.ndarray:
    """Top-1 class id per feature row; score ties go to the lowest column."""
    feat = np.asarray(feat, dtype=np.float64)
    if feat.ndim != 2 or feat.shape[1] != w.weights.shape[0]:
        raise DimensionError(
            f"feature dim {feat.shape} does not match classifier dim "
            f"{w.weights.shape[0]}"
        )
    scores = feat @ w.weights
    best = np.argmax(scores, axis=1)  # argmax returns the first (lowest) maximizer
    return np.asarray(w.class_ids, dtype=np.int64)[best]

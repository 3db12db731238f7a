"""Numerical kernel: seeded random feature map, local statistics, ridge solve.

Feature matrices are plain float64 ndarrays of shape (n, M). Every operation
here is a pure function of its arguments, except that ``local_statistics``
adds into the statistics it is given as ``into``; repeated calls with equal
arguments return bit-identical results, which is what lets clients and the
server regenerate the shared random map from a seed instead of shipping it.

A gram is stored in one layout from the client's ``dsfrk`` to the
``dpftrf`` solve: LAPACK's rectangular full packed format (RFP,
``transr="N"``, ``uplo="L"``), the M(M+1)/2 entries of its lower triangle
as two triangles and the rectangle between them in one flat array. Only
``_rfp_strips`` and ``_rfp_diagonal`` know where those parts sit.

The six LAPACK routines used here (``dsfrk``, ``dtpttf``, ``dtfttr``,
``dpftrf``, ``dpftrs``, ``dgesv``) come from scipy's compiled wrapper module
``scipy.linalg._flapack``, which ``_scipy_linalg_extension`` loads without
running ``scipy.linalg``'s package init. That init pulls in numpy's f2py,
testing and masked-array packages and doubled the start-up of every
process; the routines loaded this way are the very objects
``scipy.linalg.lapack`` exports.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from types import ModuleType
from typing import Iterator, Sequence

import numpy as np
import scipy

from .errors import DimensionError, DomainError, NumericalError
from .prng import ChaChaStream


def _scipy_linalg_extension(name: str) -> ModuleType:
    """The compiled module ``scipy.linalg.<name>``, loaded without ``scipy.linalg``.

    Importing ``scipy`` itself is cheap and sets up the load paths of the
    libraries it bundles. The module is registered in ``sys.modules`` under
    its full name, so a later ``import scipy.linalg`` reuses it, and a module
    already there is returned as it is: either import order gives one module.
    """
    fullname = f"scipy.linalg.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    search = [os.path.join(root, "linalg") for root in scipy.__path__]
    spec = PathFinder.find_spec(fullname, search)
    if spec is None:
        raise ImportError(f"no module {fullname} in {os.pathsep.join(search)}", name=fullname)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[fullname] = module
    return module


_flapack = _scipy_linalg_extension("_flapack")
dsfrk, dtpttf, dtfttr = _flapack.dsfrk, _flapack.dtpttf, _flapack.dtfttr
dpftrf, dpftrs, dgesv = _flapack.dpftrf, _flapack.dpftrs, _flapack.dgesv

SOLVE_RESIDUAL_BOUND = 1e-8

# Jitter escalation ladder for the SPD factorization, mildest first.
_JITTER_EXPONENTS = (6, 4, 2)

# Rows per strip of a gram's upper triangle; every walk over its rows
# (unpack, residual product, gram estimate) holds at most this many rows.
_SYMMETRY_BLOCK = 256

_MAP_TILE = 8  # rows and map columns per tile of the map's gemm (see ``apply_map``)


@dataclass(frozen=True)
class RandomMap:
    """Shared feature-lifting map: x -> relu(x @ matrix), dim d -> M.

    The matrix is materialized lazily from the seed, so the descriptor
    (seed, input_dim, output_dim) is all that ever needs to travel between
    parties. Its columns are zero-padded to a multiple of ``_MAP_TILE``;
    the padding maps every row to zeros, which ``apply_map`` drops.
    """

    seed: int
    input_dim: int
    output_dim: int

    @cached_property
    def matrix(self) -> np.ndarray:
        d, m = self.input_dim, self.output_dim
        entries = ChaChaStream(self.seed).standard_normal(d * m).reshape(d, m)
        # Padding copies, so a map of whole tiles is kept as drawn.
        return np.pad(entries, ((0, 0), (0, -m % _MAP_TILE))) if m % _MAP_TILE else entries


@dataclass(frozen=True)
class SpatialStatistics:
    """One shard's statistics {G, C, n} for one task; the upload names its sender.

    ``gram`` holds X^T X in RFP (``transr="N"``, ``uplo="L"``): its
    M(M+1)/2 lower-triangle entries, diagonal included, in LAPACK's
    rectangular full packed layout. It is absent in communication-efficient
    mode. The server keeps grams in this format through the solve, and
    ``unpack_gram`` makes one whole only for the oracle's reference and the
    estimator study;
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
            if self.gram.shape != (m * (m + 1) // 2,):
                raise DimensionError(
                    f"gram shape {self.gram.shape} is not the packed triangle "
                    f"({m * (m + 1) // 2},) of feature dim {m}"
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


def make_random_map(seed: int, d: int, m: int) -> RandomMap:
    """Build the shared random map descriptor.

    Entries are i.i.d. standard normal from the ChaCha stream keyed by
    ``seed``; any constant scale on them would only rescale gamma.
    """
    if d < 1 or m < 1:
        raise DimensionError(f"map dimensions must be positive, got d={d}, M={m}")
    if m < d:
        raise DimensionError(f"random mapping requires M >= d, got M={m} < d={d}")
    return RandomMap(seed=seed, input_dim=d, output_dim=m)


def apply_map(rmap: RandomMap, raw: np.ndarray) -> np.ndarray:
    """Lift raw features (n, d) to mapped features relu(raw @ matrix), (n, M).

    A row maps to the same bits in any block of rows, because each gemm
    works in whole tiles of ``_MAP_TILE``: over the map's padded columns, on
    the first n - n mod ``_MAP_TILE`` rows straight from ``raw`` and on the
    rest as one zero-padded tile. The padding is dropped in place, a tile of
    rows at a time, so no copy of ``raw`` and no second product are made.
    """
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
    n, m, matrix = raw.shape[0], rmap.output_dim, rmap.matrix
    head = n - n % _MAP_TILE
    # Rows for the tail's whole tile too, so its product is made in place.
    product = np.empty((-(-n // _MAP_TILE) * _MAP_TILE, matrix.shape[1]))
    np.matmul(raw[:head], matrix, out=product[:head])
    if head < n:
        tile = np.zeros((_MAP_TILE, raw.shape[1]))
        tile[: n - head] = raw[head:]
        np.matmul(tile, matrix, out=product[head:])
    mapped = product.reshape(-1)[: n * m].reshape(n, m)
    if m < matrix.shape[1]:
        for i in range(0, n, _MAP_TILE):
            rows = mapped[i : i + _MAP_TILE]
            rows[...] = product[i : i + len(rows), :m]  # numpy buffers the overlap
    np.maximum(mapped, 0.0, out=mapped)
    return mapped


def map_blocks(rmap: RandomMap, n: int) -> Iterator[slice]:
    """Consecutive slices of ``n`` rows, one block of rows to map at a time.

    Every block but the last holds B rows, ceil(M/2) rounded down to whole
    tiles (at least one), so from M = 15 on a mapped block never outweighs
    one RFP gram, and only the last one is padded. No rows make one empty
    block.
    """
    size = max(_MAP_TILE, -(-rmap.output_dim // 2) // _MAP_TILE * _MAP_TILE)
    return (slice(start, start + size) for start in range(0, max(n, 1), size))


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
    into: SpatialStatistics | None = None,
) -> SpatialStatistics:
    """Compute one shard's statistics from mapped features; they name no sender.

    G = X^T X, C = X^T Y with Y one-hot over ``task_classes`` in the given
    order, label_freq = per-class counts. Labels of a non-integer dtype are a
    DomainError, not truncated. G is X^T X in RFP, written by one ``dsfrk``
    into an array of this call's own; no M x M array is made. A zero-row
    ``feat`` yields zero statistics.
    ``include_gram=False`` skips G entirely (it is never formed), which is
    the communication-efficient transmit path.

    ``into``, the statistics of the shard's earlier rows as an earlier call
    returned them, makes ``feat`` one more block of that shard: its
    statistics are added into ``into``'s arrays in place, G by the same
    ``dsfrk`` with beta = 1, and the sums are returned. ``into`` must have a
    gram exactly when ``include_gram`` is set, and the shape of these rows'.
    """
    feat = np.asarray(feat, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.size and labels.dtype.kind not in "iu":
        raise DomainError(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
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

    c = len(class_list)
    cols = _label_columns(labels, class_list)
    onehot = np.zeros((feat.shape[0], c))
    onehot[np.arange(feat.shape[0]), cols] = 1.0

    n, m = feat.shape
    if into is not None and (
        (into.gram is not None) != include_gram or into.corr.shape != (m, c)
    ):
        raise DimensionError(
            f"cannot add {'gram, ' if include_gram else ''}corr ({m}, {c}) statistics "
            f"into {'gram, ' if into.gram is not None else ''}corr {into.corr.shape}"
        )
    gram = None
    if include_gram:
        # beta = 0 never reads C's old contents, so an uninitialized array is
        # enough, and with no rows it is zero-filled. feat.T is a view of
        # the F-ordered X^T that dsfrk reads, so feat is not copied.
        gram = dsfrk(
            m, n, 1.0, feat.T, 0.0 if into is None else 1.0,
            np.empty(m * (m + 1) // 2) if into is None else into.gram,
            transr="N", uplo="L", trans="N", overwrite_c=1,
        )
    corr = feat.T @ onehot
    freq = onehot.sum(axis=0).astype(np.int64)
    if into is not None:
        corr = np.add(into.corr, corr, out=into.corr)
        freq = np.add(into.label_freq, freq, out=into.label_freq)
    return SpatialStatistics(gram=gram, corr=corr, label_freq=freq)


def _rfp_strips(g: np.ndarray, m: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Walk the RFP gram ``g`` of dim ``m`` one strip of upper-triangle rows at a time.

    RFP is a column-major array of n1 = ceil(M/2) columns with leading
    dimension M (odd M) or M+1 (even M). From its row 0 (odd) or 1 (even)
    down, column c holds G[c:, c]: the triangle T1 and the rectangle S
    below it. The triangle T2, G[n1:, n1:], sits transposed in its top rows.
    G is symmetric, so G[c:, c] is also row c from column c on.

    Yields ``(i, b, strip, upper)``: a b x (M - i) view of ``g`` that holds
    G[i:i+b, i:] wherever the mask ``upper`` (on and above the diagonal) is
    True, and other entries of G below it. Strips of ``_SYMMETRY_BLOCK``
    rows cover T1's rows, then T2's.
    """
    n1, n2 = m - m // 2, m // 2
    odd = m % 2
    array = g.reshape(n1, m + 1 - odd).T
    # Row c of each part, from column c on, is a row of G from its diagonal on.
    t1_and_s = array[1 - odd :].T  # G[c, c:] for c < n1
    t2 = array[:n2, odd : odd + n2]  # G[n1 + c, n1 + c:]
    upper = np.arange(m) >= np.arange(min(_SYMMETRY_BLOCK, m))[:, None]
    for start, part in ((0, t1_and_s), (n1, t2)):
        for j in range(0, part.shape[0], _SYMMETRY_BLOCK):
            b = min(_SYMMETRY_BLOCK, part.shape[0] - j)
            yield start + j, b, part[j : j + b, j:], upper[:b, : m - start - j]


def unpack_gram(g: np.ndarray, m: int) -> np.ndarray:
    """The symmetric (M, M) matrix whose RFP ``g`` holds the lower triangle.

    ``dtfttr`` expands the triangle into a fresh column-major array, which
    as a C-ordered array holds the upper triangle; each strip's transpose
    then fills the columns below it.
    """
    if g.shape != (m * (m + 1) // 2,):
        raise DimensionError(f"packed gram shape {g.shape} is not the triangle of dim {m}")
    whole = dtfttr(m, g, transr="N", uplo="L")[0].T
    for i, b, _, upper in _rfp_strips(g, m):
        tile = whole[i : i + b, i : i + b]
        np.copyto(tile, tile.T, where=~upper[:, :b])
        whole[i + b :, i : i + b] = whole[i : i + b, i + b :].T
    return whole


def gram_frobenius(g: np.ndarray) -> float:
    """Frobenius norm of the symmetric matrix whose RFP ``g`` holds the lower triangle.

    Each off-diagonal entry appears twice in the whole matrix, so
    ||A||_F^2 = 2 ||g||^2 - ||diag(A)||^2, with the diagonal read from
    ``_rfp_diagonal``'s slots. No M x M array is made. An input that is not
    1-D, or whose length is no triangle M(M+1)/2, is a DimensionError.
    """
    if g.ndim != 1:
        raise DimensionError(f"packed gram must be 1-D, got shape {g.shape}")
    m = (math.isqrt(8 * g.size + 1) - 1) // 2
    if m * (m + 1) // 2 != g.size:
        raise DimensionError(f"packed length {g.size} is not a triangle M(M+1)/2")
    entries = g[_rfp_diagonal(m)]
    return float(np.sqrt(2.0 * (g @ g) - entries @ entries))


def _rfp_diagonal(m: int) -> np.ndarray:
    """Slot of each diagonal entry G[c, c] of an RFP gram of dim ``m``, in order.

    With n1 = ceil(M/2) and leading dimension lda = M + 1 - M % 2 (see
    ``_rfp_strips``), G[c, c] for c < n1 sits in column c, row c + 1 - M % 2,
    and for c >= n1 transposed in T2, column c - n1 + M % 2, row c - n1.
    """
    odd = m % 2
    n1, lda = m - m // 2, m + 1 - odd
    c = np.arange(m)
    return np.where(c < n1, c * (lda + 1) + 1 - odd, (c - n1 + odd) * lda + c - n1)


def _gram_product(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G @ w for the symmetric G whose RFP ``g`` holds the lower triangle.

    Per strip of G's rows i..i+b, only the b x b diagonal tile is copied,
    to mirror it; the rectangle right of it is read in place. The strip
    gives rows i..i+b of G @ w from columns i..M, and the rectangle,
    transposed, gives the rows below it their terms from columns i..i+b.
    No M x M array is made.
    """
    out = np.zeros(w.shape)
    for i, b, strip, upper in _rfp_strips(g, w.shape[0]):
        tile, rect = strip[:, :b], strip[:, b:]
        out[i : i + b] += np.where(upper[:, :b], tile, tile.T) @ w[i : i + b] + rect @ w[i + b :]
        out[i + b :] += rect.T @ w[i : i + b]
    return out


def ridge_solve(
    G: np.ndarray,
    C: np.ndarray,
    gamma: float,
    class_ids: Sequence[int] | None = None,
) -> ClassifierWeights:
    """Solve (G + gamma I) W = C by SPD factorization, never explicit inverse.

    G is the symmetric gram in RFP, its M(M+1)/2 lower-triangle entries
    (the format of ``SpatialStatistics.gram``), with M >= 1 the row count of
    C; any other M or shape, a whole (M, M) matrix included, is a
    DimensionError. Packed, G is symmetric by construction. A non-finite or
    negative gamma is a DomainError, and a non-finite G or C a
    NumericalError, before any factorization.

    Each attempt copies G, adds gamma on RFP's diagonal slots, and
    factorizes the copy in place with ``dpftrf``; ``dpftrs`` solves. The
    residual gate computes G W from G's RFP parts, one row strip at a time,
    so no step holds more than G, its factor and one diagonal tile.

    The relative residual must end under SOLVE_RESIDUAL_BOUND; one step of
    iterative refinement is taken only when the first solve misses it. If
    the Cholesky factorization fails (indefinite estimated gram), gamma is
    escalated along the distinct levels of the jitter ladder
    gamma + 10^-k * ||G||_F / M * max(gamma, 1) for k in (6, 4, 2), so
    gamma = 0 escalates too.
    """
    G = np.asarray(G, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise DimensionError(f"corr must be 2-D, got shape {C.shape}")
    m = C.shape[0]
    if m < 1:
        raise DimensionError("ridge solve needs a feature dimension of at least 1, got 0")
    if G.shape != (m * (m + 1) // 2,):
        raise DimensionError(
            f"gram shape {G.shape} is not the packed triangle "
            f"({m * (m + 1) // 2},) of corr's {m} rows"
        )
    # Written so that NaN fails too.
    if not 0.0 <= gamma < np.inf:
        raise DomainError(f"ridge coefficient must be finite and >= 0, got {gamma}")
    # max/min propagate NaN and keep inf, so they check finiteness with no
    # temporary the size of G.
    if not (np.isfinite(G.max()) and np.isfinite(G.min())):
        raise NumericalError("gram matrix has non-finite entries")
    if not np.isfinite(C).all():
        raise NumericalError("corr matrix has non-finite entries")
    if class_ids is None:
        class_ids = range(C.shape[1])
    class_ids = tuple(int(c) for c in class_ids)

    diagonal = _rfp_diagonal(m)
    frob = gram_frobenius(G)
    # Rung k is gamma + 10^-k ||G||_F / M * max(gamma, 1). For gamma >= 1,
    # gamma / unit is exactly 1, so it rounds as gamma * (1 + 10^-k ||G||_F / M).
    unit = max(float(gamma), 1.0)
    attempts = [float(gamma)]
    attempts += [unit * (gamma / unit + 10.0**-k * frob / m) for k in _JITTER_EXPONENTS]
    # A zero G makes every level gamma; a repeat would refactorize one matrix.
    attempts = list(dict.fromkeys(attempts))
    for used_gamma in attempts:
        # A failed attempt leaves its copy overwritten, so each attempt
        # copies G afresh.
        factor = G.copy()
        factor[diagonal] += used_gamma
        factor, info = dpftrf(m, factor, transr="N", uplo="L", overwrite_a=1)
        if info == 0:
            break
        factor = None  # let the failed attempt go before the next one is made
    else:
        raise NumericalError(
            f"SPD factorization failed at every jitter level {attempts}",
            attempted_gammas=attempts,
        )

    weights, _ = dpftrs(m, factor, C, transr="N", uplo="L")
    residual = C - (_gram_product(G, weights) + used_gamma * weights)
    c_norm = np.linalg.norm(C, "fro")
    r_norm = np.linalg.norm(residual, "fro")
    # Written so that a NaN residual or NaN C refines and fails the gate too.
    if not r_norm <= SOLVE_RESIDUAL_BOUND * c_norm:
        # One refinement pass, reusing the factorization; it only pays when
        # the backward error is large.
        correction, _ = dpftrs(m, factor, residual, transr="N", uplo="L")
        weights = weights + correction
        residual = C - (_gram_product(G, weights) + used_gamma * weights)
        r_norm = np.linalg.norm(residual, "fro")
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

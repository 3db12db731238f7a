"""Task schedules, non-IID partitioning, synthetic data, feature files.

Raw features stand in for the output of an external frozen feature
extractor: they arrive either from a binary feature file or from the
Gaussian class-cluster generator used by the verification oracles. Either
kind of split holds every row's label, and hands out one task at a time
through ``task``, as its raw rows and their labels: a ``SyntheticSplit``
draws each of the task's classes then, from that class's place in the
keystream, and a ``FeatureFile`` reads the task's rows from its file then.
So a run holds one task's raw rows at a time, training or test.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, FormatError
from .prng import ChaChaStream, derive_seed

MAGIC = b"STSAFEAT"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIQIIB7x")  # magic, version, n, d, class_count, role
_ROLE_CODES = {"train": 0, "test": 1}
_ROLE_NAMES = {0: "train", 1: "test"}
# Loading checks, and a task reads, the body at most this many bytes at a time.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class TaskSchedule:
    """Ordered disjoint class-id sets, one per incremental task."""

    tasks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for task in self.tasks:
            for c in task:
                if c in seen:
                    raise ConfigurationError(f"class {c} appears in two tasks")
                seen.add(c)

    @property
    def stages(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian class-cluster generator parameters (covariance noise_std^2 I)."""

    class_count: int
    dim: int
    means: np.ndarray  # (class_count, dim)
    noise_std: float  # finite, >= 0; shared by every class and coordinate
    train_per_class: int
    test_per_class: int
    seed: int

    def __post_init__(self):
        shape = (self.class_count, self.dim)
        if self.means.shape != shape:
            raise ConfigurationError(f"means {self.means.shape} must be {shape}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ConfigurationError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        _check_synth_sizes(self.class_count, self.dim, self.train_per_class, self.test_per_class)


def _check_synth_sizes(class_count: int, dim: int, train_per_class: int, test_per_class: int):
    if class_count < 1 or dim < 1 or train_per_class < 1:
        raise ConfigurationError("class_count, dim and train_per_class must be >= 1")
    if test_per_class < 0:
        raise ConfigurationError("test_per_class must be >= 0")


def random_synth_spec(
    class_count: int,
    dim: int,
    train_per_class: int,
    test_per_class: int,
    seed: int,
    noise_std: float = 0.5,
) -> SynthSpec:
    """Spec with seeded class means ~ N(0, I) and noise spread ``noise_std``."""
    # Checked before the class_count * dim draw, whose count a negative size
    # makes negative, or positive when both sizes are negative.
    _check_synth_sizes(class_count, dim, train_per_class, test_per_class)
    stream = ChaChaStream(derive_seed(seed, "synth-means"))
    means = stream.standard_normal(class_count * dim).reshape(class_count, dim)
    return SynthSpec(
        class_count=class_count,
        dim=dim,
        means=means,
        noise_std=float(noise_std),
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        seed=seed,
    )


def split_tasks(
    class_count: int,
    stages: int,
    first_task_classes: int | None = None,
    shuffle_seed: int | None = None,
) -> TaskSchedule:
    """Divide class ids into contiguous task blocks.

    Default: equal blocks of class_count / stages. With first_task_classes
    set, the first task gets that many and the remainder splits evenly over
    the other stages. Indivisible splits are configuration errors.
    """
    if stages < 1:
        raise ConfigurationError(f"task count must be >= 1, got {stages}")
    if class_count < 1:
        raise ConfigurationError(f"class count must be >= 1, got {class_count}")
    if first_task_classes is None:
        if class_count % stages != 0:
            raise ConfigurationError(
                f"{class_count} classes do not divide into {stages} equal tasks"
            )
        sizes = [class_count // stages] * stages
    else:
        if not 1 <= first_task_classes <= class_count:
            raise ConfigurationError(
                f"first task size {first_task_classes} outside [1, {class_count}]"
            )
        rest = class_count - first_task_classes
        if stages == 1:
            if rest != 0:
                raise ConfigurationError(
                    f"single task must hold all {class_count} classes"
                )
            sizes = [first_task_classes]
        else:
            if rest == 0 or rest % (stages - 1) != 0:
                raise ConfigurationError(
                    f"{rest} remaining classes do not divide into {stages - 1} "
                    f"non-empty tasks"
                )
            sizes = [first_task_classes] + [rest // (stages - 1)] * (stages - 1)

    ids = np.arange(class_count, dtype=np.int64)
    if shuffle_seed is not None:
        ids = ids[ChaChaStream(shuffle_seed).permutation(class_count)]
    tasks = []
    start = 0
    for size in sizes:
        tasks.append(tuple(int(c) for c in ids[start : start + size]))
        start += size
    return TaskSchedule(tasks=tuple(tasks))


def _distinct(labels: np.ndarray) -> np.ndarray:
    """The distinct values of ``labels`` in ascending order, as ``np.unique`` gives.

    ``np.unique`` asks ``np.ma.is_masked`` about its input, which imports
    numpy's masked-array package the first time, inside a timed run.
    """
    ordered = np.sort(labels)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def dirichlet_partition(
    labels: Sequence[int], k: int, beta: float, seed: int
) -> list[np.ndarray]:
    """Label-skew split: per class, p ~ Dir(beta 1_K), then multinomial cells.

    Returns K disjoint, exhaustive index arrays. Empty cells are legal and
    handled downstream. Smaller beta gives more heterogeneous clients.
    Labels of a non-integer dtype are a DomainError, not truncated.
    """
    if k < 1:
        raise ConfigurationError(f"client count must be >= 1, got {k}")
    if not 0.0 < beta < np.inf:
        raise ConfigurationError(f"dirichlet beta must be finite and > 0, got {beta}")
    labels = np.asarray(labels)
    if labels.size and labels.dtype.kind not in "iu":
        raise DomainError(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    stream = ChaChaStream(seed)
    owner = np.empty(labels.size, dtype=np.intp)
    for cls in _distinct(labels):
        idx = np.flatnonzero(labels == cls)
        cuts = np.cumsum(stream.dirichlet(beta, k))
        drawn = np.searchsorted(cuts, stream.random(idx.size), side="right")
        owner[idx] = np.minimum(drawn, k - 1)  # guard the cumsum rounding edge
    return [np.flatnonzero(owner == j) for j in range(k)]


class SyntheticSplit:
    """One split of the class clusters, whose rows are drawn on demand.

    Rows are class-major: class c holds rows c * per_class up to (c + 1) *
    per_class. The split's stream makes one ``standard_normal`` call per
    class, of per_class * dim values, and such a call consumes 16 bytes per
    pair of values, so class c's draw starts at byte c * 16 *
    ceil(per_class * dim / 2). Each class is drawn from a stream started
    there, so a task's rows cost only their own draws, and are the same
    bits as the rows of the whole split drawn in one pass.
    """

    def __init__(self, spec: SynthSpec, role: str):
        self.spec = spec
        self.role = role
        self.per_class = spec.train_per_class if role == "train" else spec.test_per_class
        # Every row's label, as a FeatureFile holds them; a task's raw rows
        # are drawn only when ``task`` is asked for them.
        self.labels = np.repeat(np.arange(spec.class_count, dtype=np.int64), self.per_class)

    @property
    def class_count(self) -> int:
        return self.spec.class_count

    @property
    def dim(self) -> int:
        return self.spec.dim

    def task(self, classes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The raw rows of ``classes`` and their labels, in ascending row order."""
        classes = sorted(classes)
        out = np.empty((len(classes), self.per_class, self.dim))
        for block, cls in zip(out, classes):
            self._draw_class(cls, block)
        labels = np.repeat(np.array(classes, dtype=np.int64), self.per_class)
        return out.reshape(-1, self.dim), labels

    def _draw_class(self, cls: int, out: np.ndarray) -> None:
        """Write class ``cls``'s (per_class, dim) rows into ``out``."""
        spec = self.spec
        draws = self.per_class * spec.dim
        stream = ChaChaStream(
            derive_seed(spec.seed, f"synth-{self.role}"), offset=cls * 16 * ((draws + 1) // 2)
        )
        z = stream.standard_normal(draws).reshape(self.per_class, spec.dim)
        np.add(spec.means[cls], spec.noise_std * z, out=out)


@dataclass(frozen=True)
class FeatureFile:
    """One split in a feature file: ``load_features`` checks the file and keeps
    its labels and header fields, and ``task`` reads a task's rows when asked."""

    path: Path
    labels: np.ndarray  # (n,) int64
    dim: int
    class_count: int
    role: str  # "train" | "test"
    stamp: tuple[int, int, int, int]  # the loaded file's device, inode, size, mtime_ns

    def task(self, classes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The raw rows labelled in ``classes``, widened to float64, and their labels,
        in ascending row order, read from the blocks of the body that hold them;
        a file changed since it was loaded is a FormatError."""
        rows = np.flatnonzero(np.isin(self.labels, classes))
        out = np.empty((rows.size, self.dim))
        with open(self.path, "rb") as f:
            if _stamp(f) != self.stamp:
                raise FormatError(f"{self.path} has changed since it was loaded")
            for first, block in _blocks(f, self.path, self.labels.size, self.dim, rows):
                a, b = np.searchsorted(rows, (first, first + len(block)))
                out[a:b] = block if b - a == len(block) else block[rows[a:b] - first]
        return out, self.labels[rows]


# A run's training or test split: either kind hands out one task at a time.
Split = FeatureFile | SyntheticSplit


def _stamp(f) -> tuple[int, int, int, int]:
    """The open file's device, inode, size and modification time in ns."""
    st = os.fstat(f.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _blocks(f, path, n: int, d: int, rows: np.ndarray | None = None):
    """``(first, block)``: the n rows of d float32 values of ``f``, the open file
    ``path``, read into one buffer ``_BLOCK_BYTES`` at a time from row ``first``.
    With ``rows``, ascending, each block that holds some of them is read only
    from the first of them to the last."""
    step = max(1, _BLOCK_BYTES // max(4 * d, 1))
    if rows is None:
        spans = ((first, min(first + step, n)) for first in range(0, n, step))
    else:
        index = rows // step  # the block each row lies in
        firsts = rows[np.diff(index, prepend=-1) != 0]
        lasts = rows[np.diff(index, append=index[-1:] + 1) != 0]
        spans = zip(firsts.tolist(), (lasts + 1).tolist())
    buffer = np.empty((min(step, n), d), dtype="<f4")
    for first, end in spans:
        yield first, _read(f, path, _HEADER.size + first * d * 4, buffer[: end - first])


def _read(f, path, offset: int, out: np.ndarray) -> np.ndarray:
    """``out`` filled by one read from byte ``offset`` of ``f``, the open file ``path``."""
    f.seek(offset)
    if (got := f.readinto(out)) != out.nbytes:
        raise FormatError(f"{path} is cut short: {got} of {out.nbytes} bytes at byte {offset}")
    return out


def save_features(path, features, labels, class_count: int, role: str) -> None:
    """Write (n, d) ``features`` and their ``labels`` as a little-endian feature
    file of float32 values; a bad shape, role or label is a DomainError."""
    features, labels = np.asarray(features), np.asarray(labels)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise DomainError(f"features {features.shape} and labels {labels.shape} are inconsistent")
    if role not in _ROLE_CODES:
        raise DomainError(f"unknown dataset role {role!r}")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise DomainError(
            f"labels must lie in [0, {class_count}), got range [{labels.min()}, {labels.max()}]"
        )
    if role == "train" and features.shape[0] == 0:
        raise DomainError("a train dataset needs at least one sample")
    n, d = features.shape
    with open(path, "wb") as out:
        out.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n, d, class_count, _ROLE_CODES[role]))
        # Written from the float32 array's own buffer, so no bytes copy is made.
        out.write(np.ascontiguousarray(features, dtype="<f4"))
        out.write(labels.astype("<u4"))


def load_features(path) -> FeatureFile:
    """Check a feature file and read its labels; ``task`` reads its rows.

    The header and the file's size are checked before any row is read; then
    one pass over the body, a block of rows at a time, names the first row
    that holds a non-finite value."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"truncated header: expected {_HEADER.size} bytes, got {len(head)}")
        magic, version, n, d, class_count, role_code = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version} at byte 8")
        if role_code not in _ROLE_NAMES:
            raise FormatError(f"unknown role code {role_code} at byte 24")
        expected = _HEADER.size + n * d * 4 + n * 4
        stamp = _stamp(f)
        if (size := stamp[2]) != expected:
            raise FormatError(
                f"payload length mismatch: expected {expected} bytes, got {size} "
                f"(n={n}, d={d})"
            )
        for first, block in _blocks(f, path, n, d):
            # A row of finite float32 values sums finite in float64, and any
            # NaN or infinity makes its row's sum NaN or infinite.
            finite = np.isfinite(block.sum(axis=1, dtype=np.float64))
            if not finite.all():
                raise FormatError(
                    f"non-finite feature value in row {first + int(np.argmin(finite))}"
                )
        block = None  # the check's rows go before the labels are read
        labels = _read(f, path, _HEADER.size + n * d * 4, np.empty(n, dtype="<u4"))
    labels = labels.astype(np.int64)
    if labels.size and labels.max() >= class_count:
        raise FormatError(
            f"label {int(labels.max())} exceeds declared class count {class_count}"
        )
    role = _ROLE_NAMES[role_code]
    if role == "train" and n == 0:
        raise DomainError("a train dataset needs at least one sample")
    return FeatureFile(
        path=Path(path), labels=labels, dim=d, class_count=class_count, role=role, stamp=stamp
    )

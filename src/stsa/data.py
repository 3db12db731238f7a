"""Task schedules, non-IID partitioning, synthetic data, feature files.

Raw features stand in for the output of an external frozen feature
extractor: they arrive either from a binary feature file or from the
Gaussian class-cluster generator used by the verification oracles. Either
kind of split hands out one task at a time through ``task``, as its raw rows
and their labels: a ``SyntheticSplit`` draws each of the task's classes
then, from that class's place in the keystream, and a ``FeatureDataset``
indexes its loaded arrays. So a synthetic run holds one task's raw rows at
a time, training or test; a run on feature files holds both files' rows.
"""

from __future__ import annotations

import math
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
class FeatureDataset:
    """Raw features plus labels for one split, held whole.

    A split read from a feature file is one of these; a synthetic split is a
    ``SyntheticSplit``, which draws one task's rows at a time. Either hands
    out a task through ``task``.
    """

    features: np.ndarray  # (n, d) float64, resident for the whole run
    labels: np.ndarray  # (n,) int64
    class_count: int
    role: str  # "train" | "test"

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise DomainError(
                f"features {self.features.shape} and labels {self.labels.shape} "
                f"are inconsistent"
            )
        if self.role not in _ROLE_CODES:
            raise DomainError(f"unknown dataset role {self.role!r}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DomainError(
                f"labels must lie in [0, {self.class_count}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )
        if self.role == "train" and self.features.shape[0] == 0:
            raise DomainError("a train dataset needs at least one sample")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def task(self, classes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The raw rows labelled in ``classes`` and their labels, in ascending row order."""
        rows = np.isin(self.labels, classes)
        return self.features[rows], self.labels[rows]


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
        # Every row's label, as a FeatureDataset holds them, for callers that
        # look at the whole split; the runner takes a task's through ``task``.
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

    def dataset(self) -> FeatureDataset:
        """The whole split, drawn."""
        features, labels = self.task(range(self.class_count))
        return FeatureDataset(
            features=features, labels=labels, class_count=self.class_count, role=self.role
        )

    def _draw_class(self, cls: int, out: np.ndarray) -> None:
        """Write class ``cls``'s (per_class, dim) rows into ``out``."""
        spec = self.spec
        draws = self.per_class * spec.dim
        stream = ChaChaStream(
            derive_seed(spec.seed, f"synth-{self.role}"), offset=cls * 16 * ((draws + 1) // 2)
        )
        z = stream.standard_normal(draws).reshape(self.per_class, spec.dim)
        np.add(spec.means[cls], spec.noise_std * z, out=out)


# A run's training or test split: either kind hands out one task at a time.
Split = FeatureDataset | SyntheticSplit


def generate_synthetic(spec: SynthSpec) -> tuple[FeatureDataset, FeatureDataset]:
    """Draw disjoint seeded train/test splits from the class clusters."""
    return SyntheticSplit(spec, "train").dataset(), SyntheticSplit(spec, "test").dataset()


def save_features(dataset: FeatureDataset, path) -> None:
    """Write the little-endian feature file (values stored as float32)."""
    n, d = dataset.features.shape
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, n, d, dataset.class_count, _ROLE_CODES[dataset.role]
    )
    body = dataset.features.astype("<f4").tobytes(order="C")
    tail = dataset.labels.astype("<u4").tobytes()
    Path(path).write_bytes(header + body + tail)


def load_features(path) -> FeatureDataset:
    """Read a feature file, widening stored float32 values to float64."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise FormatError(
            f"truncated header: expected {_HEADER.size} bytes, got {len(data)}"
        )
    magic, version, n, d, class_count, role_code = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version} at byte 8")
    if role_code not in _ROLE_NAMES:
        raise FormatError(f"unknown role code {role_code} at byte 24")
    expected = _HEADER.size + n * d * 4 + n * 4
    if len(data) != expected:
        raise FormatError(
            f"payload length mismatch: expected {expected} bytes, got {len(data)} "
            f"(n={n}, d={d})"
        )
    features = (
        np.frombuffer(data, dtype="<f4", count=n * d, offset=_HEADER.size)
        .reshape(n, d)
        .astype(np.float64)
    )
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise FormatError(f"non-finite feature value in row {int(np.argmin(finite))}")
    labels = np.frombuffer(
        data, dtype="<u4", count=n, offset=_HEADER.size + n * d * 4
    ).astype(np.int64)
    if labels.size and labels.max() >= class_count:
        raise FormatError(
            f"label {int(labels.max())} exceeds declared class count {class_count}"
        )
    return FeatureDataset(
        features=features,
        labels=labels,
        class_count=class_count,
        role=_ROLE_NAMES[role_code],
    )

"""Task splitting, non-IID partitioning, synthesis, feature files."""

import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from stsa import data
from stsa.data import (
    SynthSpec,
    SyntheticSplit,
    _distinct,
    dirichlet_partition,
    load_features,
    random_synth_spec,
    save_features,
    split_tasks,
)
from stsa.errors import ConfigurationError, DomainError, FormatError


class TestSplitTasks:
    def test_equal_split(self):
        schedule = split_tasks(100, 10)
        assert schedule.stages == 10
        assert all(len(task) == 10 for task in schedule.tasks)
        assert schedule.tasks[0] == tuple(range(10))
        assert schedule.tasks[9] == tuple(range(90, 100))

    def test_large_first_task(self):
        schedule = split_tasks(100, 11, first_task_classes=50)
        assert len(schedule.tasks[0]) == 50
        assert all(len(task) == 5 for task in schedule.tasks[1:])

    def test_single_task(self):
        schedule = split_tasks(7, 1)
        assert schedule.tasks == (tuple(range(7)),)

    def test_classes_are_disjoint_and_exhaustive(self):
        schedule = split_tasks(60, 6)
        seen = [c for task in schedule.tasks for c in task]
        assert sorted(seen) == list(range(60))

    def test_indivisible_split_rejected(self):
        with pytest.raises(ConfigurationError):
            split_tasks(100, 7)
        with pytest.raises(ConfigurationError):
            split_tasks(100, 11, first_task_classes=49)
        with pytest.raises(ConfigurationError):
            split_tasks(10, 0)

    def test_first_task_cannot_leave_empty_tasks(self):
        with pytest.raises(ConfigurationError):
            split_tasks(50, 11, first_task_classes=50)

    def test_shuffle_seed_permutes_classes(self):
        plain = split_tasks(20, 4)
        shuffled = split_tasks(20, 4, shuffle_seed=5)
        again = split_tasks(20, 4, shuffle_seed=5)
        assert shuffled.tasks == again.tasks
        assert shuffled.tasks != plain.tasks
        assert sorted(c for t in shuffled.tasks for c in t) == list(range(20))


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        labels = np.array([0, 1, 2, 0, 1])
        parts = dirichlet_partition(labels, 1, beta=0.5, seed=3)
        assert len(parts) == 1
        assert parts[0].tolist() == [0, 1, 2, 3, 4]

    def test_determinism(self):
        labels = np.repeat(np.arange(5), 40)
        a = dirichlet_partition(labels, 4, beta=0.3, seed=11)
        b = dirichlet_partition(labels, 4, beta=0.3, seed=11)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_partition_is_disjoint_and_exhaustive(self):
        labels = np.repeat(np.arange(7), 30)
        parts = dirichlet_partition(labels, 5, beta=1.0, seed=2)
        combined = np.concatenate(parts)
        assert len(combined) == len(labels)
        assert np.array_equal(np.sort(combined), np.arange(len(labels)))

    def test_smaller_beta_is_more_heterogeneous(self):
        # Mean per-client label entropy drops as beta shrinks.
        labels = np.repeat(np.arange(10), 1000)

        def mean_entropy(beta, seed):
            parts = dirichlet_partition(labels, 5, beta=beta, seed=seed)
            entropies = []
            for part in parts:
                if part.size == 0:
                    continue
                _, counts = np.unique(labels[part], return_counts=True)
                p = counts / counts.sum()
                entropies.append(-(p * np.log(p)).sum())
            return np.mean(entropies)

        seeds = range(20)
        skewed = np.mean([mean_entropy(0.1, s) for s in seeds])
        uniform = np.mean([mean_entropy(100.0, s) for s in seeds])
        assert skewed < uniform

    def test_vanishing_beta_gives_each_class_to_one_client(self):
        labels = np.repeat(np.arange(6), 25)
        parts = dirichlet_partition(labels, 4, beta=1e-300, seed=5)
        combined = np.concatenate(parts)
        assert np.array_equal(np.sort(combined), np.arange(len(labels)))
        for cls in range(6):
            holders = [k for k, part in enumerate(parts) if (labels[part] == cls).any()]
            assert len(holders) == 1

    def test_huge_finite_beta_leaves_no_client_empty(self):
        # beta -> inf is near-uniform; an overflowing Dirichlet sum once put
        # every row on the last client.
        parts = dirichlet_partition(np.zeros(30, dtype=np.int64), 3, beta=1e308, seed=1)
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(30))
        assert all(part.size > 0 for part in parts)

    @pytest.mark.parametrize(
        "labels",
        [
            np.random.default_rng(3).integers(-20, 20, size=500),
            np.random.default_rng(4).integers(0, 3, size=7),
            np.full(9, -4),
            np.array([5]),
            np.empty(0, dtype=np.int64),
        ],
        ids=["signed", "few", "one-label", "one-row", "empty"],
    )
    def test_class_walk_is_np_unique(self, labels):
        # The partition walks the classes in this order, so each class's
        # draws from the stream stay where np.unique put them.
        walked = _distinct(labels)
        assert walked.dtype == labels.dtype
        assert np.array_equal(walked, np.unique(labels))

    def test_non_integer_labels_are_a_domain_error(self):
        # An int64 cast would read 0.5 and 0.7 both as class 0.
        with pytest.raises(DomainError, match="labels must be integers, got dtype float64"):
            dirichlet_partition([0.5, 0.7], 2, 1.0, 1)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            dirichlet_partition([0, 1], 0, beta=1.0, seed=0)
        with pytest.raises(ConfigurationError):
            dirichlet_partition([0, 1], 2, beta=0.0, seed=0)
        # A non-finite beta would leave the Dirichlet sampler spinning.
        for beta in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                dirichlet_partition([0, 1], 2, beta=beta, seed=0)


def drawn(spec, role="train"):
    """A synthetic split's rows and labels, the whole split drawn at once."""
    return SyntheticSplit(spec, role).task(range(spec.class_count))


def saved(path, spec, role="train"):
    """``path``, holding a synthetic split written whole by ``save_features``."""
    save_features(path, *drawn(spec, role), spec.class_count, role)
    return path


class TestGenerateSynthetic:
    def test_zero_variance_reproduces_means(self):
        means = np.array([[1.0, 2.0], [3.0, -4.0]])
        spec = SynthSpec(
            class_count=2, dim=2, means=means, noise_std=0.0,
            train_per_class=5, test_per_class=3, seed=0,
        )
        (train, train_labels), (test, test_labels) = drawn(spec), drawn(spec, "test")
        for cls in range(2):
            assert np.all(train[train_labels == cls] == means[cls])
            assert np.all(test[test_labels == cls] == means[cls])

    def test_sample_means_concentrate(self):
        spec = random_synth_spec(4, 8, train_per_class=400, test_per_class=10,
                                 seed=123, noise_std=1.5)
        train, labels = drawn(spec)
        for cls in range(4):
            sample_mean = train[labels == cls].mean(axis=0)
            trace = spec.dim * spec.noise_std**2
            bound = 3.0 * np.sqrt(trace / 400)
            assert np.linalg.norm(sample_mean - spec.means[cls]) <= bound

    @pytest.mark.parametrize("noise_std", [-2.0, float("nan")], ids=["negative", "nan"])
    def test_bad_noise_std_is_rejected(self, noise_std):
        # A negative spread is not its absolute value, and a NaN one would
        # only surface as NaN features.
        message = f"noise_std must be finite and >= 0, got {noise_std}"
        with pytest.raises(ConfigurationError, match=message):
            random_synth_spec(2, 3, 4, 4, seed=1, noise_std=noise_std)

    def test_seed_changes_samples_not_counts(self):
        a = random_synth_spec(3, 4, 10, 5, seed=1)
        b = random_synth_spec(3, 4, 10, 5, seed=1)
        c = SynthSpec(class_count=3, dim=4, means=a.means, noise_std=a.noise_std,
                      train_per_class=10, test_per_class=5, seed=2)
        (train_a, labels_a), (train_b, _), (train_c, labels_c) = drawn(a), drawn(b), drawn(c)
        assert np.array_equal(train_a, train_b)
        assert not np.array_equal(train_a, train_c)
        assert np.array_equal(labels_a, labels_c)

    def test_train_and_test_draws_differ(self):
        spec = random_synth_spec(2, 3, train_per_class=4, test_per_class=4, seed=9)
        (train, _), (test, _) = drawn(spec), drawn(spec, "test")
        assert len(train) == 8 and len(test) == 8
        assert not np.array_equal(train, test)

    def test_per_class_counts_are_exact(self):
        spec = random_synth_spec(5, 2, train_per_class=13, test_per_class=7, seed=3)
        (_, train_labels), (_, test_labels) = drawn(spec), drawn(spec, "test")
        assert all(np.sum(train_labels == c) == 13 for c in range(5))
        assert all(np.sum(test_labels == c) == 7 for c in range(5))


class TestTaskFeatures:
    # A shuffled schedule with a first task of its own size, so tasks list
    # their classes out of order and differ in size.
    SCHEDULE = split_tasks(9, 3, first_task_classes=3, shuffle_seed=4)

    @pytest.mark.parametrize("per_class, dim", [(7, 3), (5, 5), (20, 4)])
    def test_a_synthetic_task_is_the_eager_splits_rows(self, per_class, dim):
        # 7 * 3 and 5 * 5 draws per class are odd: each class's normal call
        # drops the second value of its last pair, which the offsets count.
        spec = random_synth_spec(9, dim, per_class, 2, seed=21)
        eager, eager_labels = drawn(spec)
        split = SyntheticSplit(spec, "train")
        assert np.array_equal(split.labels, eager_labels)
        assert any(list(task) != sorted(task) for task in self.SCHEDULE.tasks)
        for task in self.SCHEDULE.tasks:
            rows = np.flatnonzero(np.isin(eager_labels, task))
            features, labels = split.task(task)
            assert features.dtype == np.float64
            assert features.tobytes() == eager[rows].tobytes()
            assert labels.dtype == np.int64
            assert labels.tobytes() == eager_labels[rows].tobytes()

    def test_a_file_task_is_the_loaded_rows_in_row_order(self, tmp_path):
        spec = random_synth_spec(9, 4, 6, 2, seed=22)
        eager, eager_labels = drawn(spec)
        order = np.random.default_rng(3).permutation(len(eager))  # classes interleaved
        written, written_labels = eager[order], eager_labels[order]
        save_features(tmp_path / "train.stsafeat", written, written_labels, 9, "train")
        loaded = load_features(tmp_path / "train.stsafeat")
        # Stored values are float32; each read widens them exactly.
        stored = written.astype(np.float32).astype(np.float64)
        for task in self.SCHEDULE.tasks:
            rows = np.flatnonzero(np.isin(written_labels, task))
            features, labels = loaded.task(task)
            assert features.dtype == np.float64 and labels.dtype == np.int64
            assert features.tobytes() == stored[rows].tobytes()
            assert labels.tobytes() == written_labels[rows].tobytes()


    def test_a_file_task_reads_only_the_blocks_that_hold_its_rows(self, tmp_path, monkeypatch):
        # At d = 64 a block is 4096 rows. Classes 0 and 2 alternate in rows
        # 0-99 and 9000-9099, and class 1 fills the rows between: a task of
        # classes 0 and 2 reads rows 0-99 of block 0 and 9000-9099 of block
        # 2 and picks its rows out of each, and one of class 1 reads its run
        # a block at a time, from row 100 up to row 8999.
        n, d = 9100, 64
        labels = np.r_[np.tile([0, 2], 50), np.ones(8900, dtype=np.int64), np.tile([2, 0], 50)]
        written = np.random.default_rng(5).normal(size=(n, d))
        path = tmp_path / "blocks.stsafeat"
        save_features(path, written, labels, 3, "train")
        loaded = load_features(path)
        reads, read = [], data._read

        def counted(f, path, offset, out):
            reads.append(((offset - 36) // (d * 4), len(out)))  # first row, row count
            return read(f, path, offset, out)

        monkeypatch.setattr(data, "_read", counted)
        stored = written.astype(np.float32).astype(np.float64)
        for task, expected in [
            ([2, 0], [(0, 100), (9000, 100)]),
            ([1], [(100, 3996), (4096, 4096), (8192, 808)]),
        ]:
            reads.clear()
            features, task_labels = loaded.task(task)
            assert reads == expected
            rows = np.flatnonzero(np.isin(labels, task))
            assert features.tobytes() == stored[rows].tobytes()
            assert task_labels.tobytes() == labels[rows].tobytes()


def rewritten(path, blob):
    # The same size, rows now zero, labels all 0: only the times differ.
    path.write_bytes(blob[:36] + bytes(len(blob) - 36))


def cut_short(path, blob):
    path.write_bytes(blob[: 36 + 12 * 4 * 4])  # the header and 12 rows


def replaced(path, blob):
    # The same bytes and times in a new file put in the old one's place.
    new = path.with_suffix(".new")
    new.write_bytes(blob)
    os.utime(new, ns=(0, 0))
    os.replace(new, path)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        spec = random_synth_spec(3, 5, train_per_class=11, test_per_class=4, seed=77)
        train, labels = drawn(spec)
        loaded = load_features(saved(tmp_path / "train.stsafeat", spec))
        # Stored values are float32; the round trip is exact after widening.
        features, loaded_labels = loaded.task(range(3))
        assert np.array_equal(features, train.astype(np.float32).astype(np.float64))
        assert np.array_equal(loaded_labels, labels) and np.array_equal(loaded.labels, labels)
        assert loaded.class_count == 3 and loaded.role == "train" and loaded.dim == 5

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_file_is_the_header_body_and_labels(self, tmp_path, order):
        # The body is written from the float32 array itself, in row order
        # whatever the features' memory order.
        features = np.asarray(np.random.default_rng(4).normal(size=(7, 3)), order=order)
        labels = np.array([0, 4, 1, 4, 2, 0, 3])
        path = tmp_path / "rows.stsafeat"
        save_features(path, features, labels, 5, "test")
        header = struct.pack("<8sIQIIB7x", b"STSAFEAT", 1, 7, 3, 5, 1)
        body = features.astype("<f4").tobytes(order="C")
        tail = labels.astype("<u4").tobytes()
        assert path.read_bytes() == header + body + tail

    def test_second_round_trip_is_bit_identical(self, tmp_path):
        spec = random_synth_spec(2, 4, train_per_class=6, test_per_class=2, seed=8)
        p1, p2 = saved(tmp_path / "a.stsafeat", spec), tmp_path / "b.stsafeat"
        loaded = load_features(p1)
        save_features(p2, *loaded.task(range(2)), loaded.class_count, loaded.role)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_test_dataset(self, tmp_path):
        path = tmp_path / "empty.stsafeat"
        save_features(path, np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 9, "test")
        loaded = load_features(path)
        features, labels = loaded.task(range(9))
        assert loaded.labels.size == 0 and features.shape == (0, 4) and labels.size == 0
        assert loaded.class_count == 9 and loaded.role == "test"

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        spec = random_synth_spec(2, 3, train_per_class=4, test_per_class=1, seed=5)
        path = saved(tmp_path / "cut.stsafeat", spec)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert f"expected {len(blob)} bytes, got {len(blob) - 5}" in str(err.value)

    @pytest.mark.parametrize(
        "change", [rewritten, cut_short, replaced], ids=["rewritten", "cut-short", "replaced"]
    )
    def test_a_file_changed_after_loading_fails_its_task(self, tmp_path, change):
        # The rows are read when a task asks for them; a file rewritten, cut
        # short or replaced since it was loaded is a format error naming the
        # file, not a task of rows the loaded labels no longer describe.
        spec = random_synth_spec(3, 4, train_per_class=5, test_per_class=1, seed=6)
        path = saved(tmp_path / "changed.stsafeat", spec)
        os.utime(path, ns=(0, 0))  # written long before the run
        loaded = load_features(path)
        assert loaded.task([0, 1])[0].shape == (10, 4)
        change(path, path.read_bytes())
        message = f"{path} has changed since it was loaded"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            loaded.task([2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        spec = random_synth_spec(2, 3, train_per_class=4, test_per_class=1, seed=5)
        features, labels = drawn(spec)
        features[5, 1] = bad
        path = tmp_path / "bad-value.stsafeat"
        save_features(path, features, labels, 2, "train")
        with pytest.raises(FormatError, match="row 5"):
            load_features(path)

    def test_a_non_finite_row_is_named_past_the_first_check_block(self, tmp_path):
        # The check reads the body in blocks of 4096 rows at d = 64; a bad
        # row in a later block is named by its place in the file.
        features = np.ones((9000, 64))
        features[8200, 63] = np.nan
        path = tmp_path / "late.stsafeat"
        save_features(path, features, np.zeros(9000, dtype=np.int64), 1, "train")
        with pytest.raises(FormatError, match="^non-finite feature value in row 8200$"):
            load_features(path)

    def test_loading_holds_no_rows(self, tmp_path):
        # Loading holds one check block, 1 MiB of float32 rows, and then the
        # int64 labels, n * 8 bytes, as they widen from the n * 4 bytes of
        # uint32 ones. The rows of this 20,000 x 64 file, read whole and
        # widened, would be 10 MB in float64 alone.
        n, d = 20000, 64
        rows = np.random.default_rng(1).normal(size=(n, d))
        path = tmp_path / "big.stsafeat"
        save_features(path, rows, np.arange(n) % 7, 7, "train")
        del rows
        tracemalloc.start()
        try:
            loaded = load_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.labels.nbytes == n * 8
        assert peak <= n * 8 + (1 << 20) + n * 4 + 64 * 1024

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.stsafeat"
        path.write_bytes(b"NOTAFEAT" + bytes(28))
        with pytest.raises(FormatError, match="bad magic"):
            load_features(path)

    def test_bad_version(self, tmp_path):
        spec = random_synth_spec(2, 3, train_per_class=4, test_per_class=1, seed=5)
        path = saved(tmp_path / "v2.stsafeat", spec)
        blob = bytearray(path.read_bytes())
        blob[8] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 2"):
            load_features(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.stsafeat"
        path.write_bytes(b"STSA")
        with pytest.raises(FormatError, match="truncated header"):
            load_features(path)

    def test_empty_train_rejected(self, tmp_path):
        message = "^a train dataset needs at least one sample$"
        with pytest.raises(DomainError, match=message):
            save_features(tmp_path / "x", np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2, "train")
        # A train file of no rows, written by hand, fails to load the same way.
        path = tmp_path / "empty-train.stsafeat"
        path.write_bytes(struct.pack("<8sIQIIB7x", b"STSAFEAT", 1, 0, 4, 2, 0))
        with pytest.raises(DomainError, match=message):
            load_features(path)

    @pytest.mark.parametrize(
        "features, labels, role, message",
        [
            (np.zeros(3), np.zeros(3, dtype=int), "train", r"features \(3,\) and labels \(3,\)"),
            (np.zeros((3, 2)), np.zeros(2, dtype=int), "train", r"features \(3, 2\) and labels"),
            (np.zeros((3, 2)), np.zeros(3, dtype=int), "valid", "unknown dataset role 'valid'"),
            (np.zeros((2, 2)), np.array([0, 2]), "test", r"in \[0, 2\), got range \[0, 2\]"),
            (np.zeros((2, 2)), np.array([-1, 1]), "test", r"got range \[-1, 1\]"),
        ],
        ids=["1-d", "lengths", "role", "label-high", "label-negative"],
    )
    def test_save_refuses_a_malformed_split(self, tmp_path, features, labels, role, message):
        path = tmp_path / "never.stsafeat"
        with pytest.raises(DomainError, match=message):
            save_features(path, features, labels, 2, role)
        assert not path.exists()

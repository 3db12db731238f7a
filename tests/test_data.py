"""Task splitting, non-IID partitioning, synthesis, feature files."""

import numpy as np
import pytest

from stsa.data import (
    FeatureDataset,
    SynthSpec,
    SyntheticSplit,
    _distinct,
    dirichlet_partition,
    generate_synthetic,
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


class TestGenerateSynthetic:
    def test_zero_variance_reproduces_means(self):
        means = np.array([[1.0, 2.0], [3.0, -4.0]])
        spec = SynthSpec(
            class_count=2, dim=2, means=means, noise_std=0.0,
            train_per_class=5, test_per_class=3, seed=0,
        )
        train, test = generate_synthetic(spec)
        for cls in range(2):
            assert np.all(train.features[train.labels == cls] == means[cls])
            assert np.all(test.features[test.labels == cls] == means[cls])

    def test_sample_means_concentrate(self):
        spec = random_synth_spec(4, 8, train_per_class=400, test_per_class=10,
                                 seed=123, noise_std=1.5)
        train, _ = generate_synthetic(spec)
        for cls in range(4):
            sample_mean = train.features[train.labels == cls].mean(axis=0)
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
        train_a, _ = generate_synthetic(a)
        train_b, _ = generate_synthetic(b)
        train_c, _ = generate_synthetic(c)
        assert np.array_equal(train_a.features, train_b.features)
        assert not np.array_equal(train_a.features, train_c.features)
        assert np.array_equal(train_a.labels, train_c.labels)

    def test_train_and_test_draws_differ(self):
        spec = random_synth_spec(2, 3, train_per_class=4, test_per_class=4, seed=9)
        train, test = generate_synthetic(spec)
        assert train.size == 8 and test.size == 8
        assert not np.array_equal(train.features, test.features)

    def test_per_class_counts_are_exact(self):
        spec = random_synth_spec(5, 2, train_per_class=13, test_per_class=7, seed=3)
        train, test = generate_synthetic(spec)
        assert all(np.sum(train.labels == c) == 13 for c in range(5))
        assert all(np.sum(test.labels == c) == 7 for c in range(5))


class TestTaskFeatures:
    # A shuffled schedule with a first task of its own size, so tasks list
    # their classes out of order and differ in size.
    SCHEDULE = split_tasks(9, 3, first_task_classes=3, shuffle_seed=4)

    @pytest.mark.parametrize("per_class, dim", [(7, 3), (5, 5), (20, 4)])
    def test_a_synthetic_task_is_the_eager_splits_rows(self, per_class, dim):
        # 7 * 3 and 5 * 5 draws per class are odd: each class's normal call
        # drops the second value of its last pair, which the offsets count.
        spec = random_synth_spec(9, dim, per_class, 2, seed=21)
        eager, _ = generate_synthetic(spec)
        split = SyntheticSplit(spec, "train")
        assert np.array_equal(split.labels, eager.labels)
        assert any(list(task) != sorted(task) for task in self.SCHEDULE.tasks)
        for task in self.SCHEDULE.tasks:
            rows = np.flatnonzero(np.isin(eager.labels, task))
            drawn, labels = split.task(task)
            assert drawn.dtype == np.float64
            assert drawn.tobytes() == eager.features[rows].tobytes()
            assert labels.dtype == np.int64
            assert labels.tobytes() == eager.labels[rows].tobytes()

    def test_a_file_task_is_the_loaded_rows_in_row_order(self, tmp_path):
        spec = random_synth_spec(9, 4, 6, 2, seed=22)
        eager, _ = generate_synthetic(spec)
        order = np.random.default_rng(3).permutation(eager.size)  # classes interleaved
        save_features(
            FeatureDataset(eager.features[order], eager.labels[order], 9, "train"),
            tmp_path / "train.stsafeat",
        )
        loaded = load_features(tmp_path / "train.stsafeat")
        for task in self.SCHEDULE.tasks:
            rows = np.flatnonzero(np.isin(loaded.labels, task))
            features, labels = loaded.task(task)
            assert features.tobytes() == loaded.features[rows].tobytes()
            assert labels.tobytes() == loaded.labels[rows].tobytes()


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        spec = random_synth_spec(3, 5, train_per_class=11, test_per_class=4, seed=77)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "train.stsafeat"
        save_features(train, path)
        loaded = load_features(path)
        # Stored values are float32; the round trip is exact after widening.
        assert np.array_equal(loaded.features, train.features.astype(np.float32).astype(np.float64))
        assert np.array_equal(loaded.labels, train.labels)
        assert loaded.class_count == 3 and loaded.role == "train"

    def test_second_round_trip_is_bit_identical(self, tmp_path):
        spec = random_synth_spec(2, 4, train_per_class=6, test_per_class=2, seed=8)
        train, _ = generate_synthetic(spec)
        p1, p2 = tmp_path / "a.stsafeat", tmp_path / "b.stsafeat"
        save_features(train, p1)
        save_features(load_features(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_test_dataset(self, tmp_path):
        empty = FeatureDataset(
            features=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64),
            class_count=9, role="test",
        )
        path = tmp_path / "empty.stsafeat"
        save_features(empty, path)
        loaded = load_features(path)
        assert loaded.size == 0 and loaded.features.shape == (0, 4)
        assert loaded.class_count == 9 and loaded.role == "test"

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        spec = random_synth_spec(2, 3, train_per_class=4, test_per_class=1, seed=5)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "cut.stsafeat"
        save_features(train, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            load_features(path)
        assert f"expected {len(blob)} bytes, got {len(blob) - 5}" in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        spec = random_synth_spec(2, 3, train_per_class=4, test_per_class=1, seed=5)
        train, _ = generate_synthetic(spec)
        features = train.features.copy()
        features[5, 1] = bad
        path = tmp_path / "bad-value.stsafeat"
        save_features(FeatureDataset(features, train.labels, 2, "train"), path)
        with pytest.raises(FormatError, match="row 5"):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.stsafeat"
        path.write_bytes(b"NOTAFEAT" + bytes(28))
        with pytest.raises(FormatError, match="bad magic"):
            load_features(path)

    def test_bad_version(self, tmp_path):
        spec = random_synth_spec(2, 3, train_per_class=4, test_per_class=1, seed=5)
        train, _ = generate_synthetic(spec)
        path = tmp_path / "v2.stsafeat"
        save_features(train, path)
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

    def test_empty_train_rejected(self):
        with pytest.raises(DomainError):
            FeatureDataset(
                features=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64),
                class_count=2, role="train",
            )
